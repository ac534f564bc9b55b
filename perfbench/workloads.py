"""Seeded inputs of the three workloads.

Nothing here imports so5cg: the program only ever sees the generated
requests. A workload is cut into chunks; the benchmark runs whole chunks
until the run time is spent. A chunk of an in-process workload runs in one
fresh worker process.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from random import Random
from typing import Iterator

WORKLOADS = ("table_sweep", "coupling_gram", "cli_session")

# table_sweep: a deck of sources from 2j1 = 6 up to 2j1 = 40, each with
# every present channel plus aux. A deck is one chunk: it runs in one fresh
# worker process, so memos are only reused within it. Every deck exports the
# same tables, each source's channels together; the seed orders the sources,
# and the formats alternate between decks. A run ends at a deck boundary, so
# every run measures the same mix of small and large tables whatever the
# seed and however fast the machine is.
TABLE_DECK = ("3,1", "13/2,6", "14,0", "20,20")

# coupling_gram: decks of 14 sources, a fixed multiset played in a seeded
# order, all in one worker process after an untimed warm-up deck, so the
# memos are hot. Matrix side 140 for (1,0) up to 770 for (2,2); (3/2,1/2) is
# the one source with a second diagonal copy. The counts put the median
# inside the (3/2,0) requests and p90 inside the (3/2,1/2) ones, not on the
# edge between two sources, and keep both well above the length of a
# garbage-collector pause.
GRAM_DECK = ("1,0",) * 3 + ("1,1",) * 2 + ("3/2,0",) * 4 + (
    "3/2,3/2", "2,0", "2,0", "3/2,1/2", "2,2")
# more decks than any run gets through
GRAM_DECKS = 200

# cli_session: a deck of thirteen invocations: a table request for each of
# eight (source, channel) pairs, so from the second deck on every table
# request repeats a pair and hits the disk cache, plus one eval, decompose
# and branch, and two of the three verify suites. The verify suites are the
# slowest requests, about 15% of them, so p90 lies inside them rather than
# on the edge of the cache hits. What a deck holds depends only on its
# number; the seed orders it.
CLI_TABLE_PAIRS = (
    ("3/2,1/2", "+1,+1"),
    ("2,1", "0,0#2"),
    ("5/2,3/2", "-1/2,-1/2"),
    ("3,1", "+1/2,-1/2"),
    ("3,3/2", "0,0#1"),
    ("4,2", "+1,0"),
    ("5/2,1/2", "aux"),
    ("7/2,3/2", "-1,+1"),
)
CLI_EVALS = (
    ("--source", "1/2,0", "--channel=+1/2,+1/2", "--source-so4", "1/2,0",
     "--entry=+1/2,+1/2", "--part", "1/2,1/2", "--m", "1/2,0",
     "--part-m", "1/2,1/2"),
    ("--source", "3/2,1/2", "--channel=0,0#2", "--source-so4", "3/2,1/2",
     "--entry", "0,0", "--part", "0,0"),
    ("--source", "1,1", "--channel=+1,+1", "--source-so4", "1,1",
     "--entry=+1,+1", "--part", "1,1"),
    ("--source", "2,1", "--channel=-1/2,+1/2", "--source-so4", "3/2,1/2",
     "--entry=+1/2,+1/2", "--part", "1/2,1/2", "--m", "1/2,-1/2",
     "--part-m=-1/2,1/2"),
)
CLI_LABELS = ("1,1", "3/2,1/2", "2,1", "5/2,3/2")
CLI_VERIFY = (
    ("verify", "su2", "--max-twice-j", "8"),
    ("verify", "symmetry", "--max-twice-j", "2"),
    ("verify", "oracle", "--source", "1/2,0"),
)


def twice(label: str) -> tuple[int, int]:
    """Doubled spins of a label written as the CLI takes it ("3/2,1/2")."""
    a, b = label.split(",")
    return int(Fraction(a) * 2), int(Fraction(b) * 2)


def table_rows_of(label: str) -> int:
    """Rows of one exported channel table: SO(4) blocks times 14 entries."""
    tj1, tj2 = twice(label)
    return (tj2 + 1) * (tj1 - tj2 + 1) * 14


def table_chunks(pool: dict[str, list[str]], seed: int,
                 deck: tuple[str, ...] = TABLE_DECK) -> Iterator[list[dict]]:
    """Decks of every pooled channel of the deck's sources, the sources in
    seeded order, CSV and JSON alternating along a deck and between decks."""
    rng = Random(f"table_sweep/{seed}")
    n = 0
    for deck_no in count():
        order = list(deck)
        rng.shuffle(order)
        chunk = []
        for source in order:
            for k, channel in enumerate(pool[source]):
                chunk.append({"id": n, "source": source, "channel": channel,
                              "format": ("csv", "json")[(k + deck_no) % 2],
                              "rows": table_rows_of(source)})
                n += 1
        yield chunk


def gram_chunks(seed: int, deck: tuple[str, ...] = GRAM_DECK
                ) -> Iterator[list[dict]]:
    """One chunk: GRAM_DECKS decks, each shuffled; the worker stops at a
    deck boundary when the time is spent."""
    rng = Random(f"coupling_gram/{seed}")
    chunk = []
    for _ in range(GRAM_DECKS):
        order = list(deck)
        rng.shuffle(order)
        chunk += [{"id": len(chunk) + i, "source": source}
                  for i, source in enumerate(order)]
    yield chunk


def table_argv(source: str, channel: str, fmt: str) -> list[str]:
    # "=" keeps argparse from reading a channel such as "-1,+1" as an option
    return ["table", "--source", source, f"--channel={channel}",
            "--format", fmt]


def cli_chunks(seed: int, pairs: tuple[tuple[str, str], ...] = CLI_TABLE_PAIRS
               ) -> Iterator[list[dict]]:
    """Decks of table, eval, decompose, branch and verify invocations."""
    rng = Random(f"cli_session/{seed}")
    formats = ("csv", "json")
    n = 0
    for deck_no in count():
        argvs = []
        for k, (source, channel) in enumerate(pairs):
            argv = table_argv(source, channel, formats[(k + deck_no) % 2])
            argvs.append((argv, (k + deck_no) % 3 == 0))
        argvs.append((["eval", *CLI_EVALS[deck_no % len(CLI_EVALS)]], False))
        for shift, command in enumerate(("decompose", "branch")):
            i = deck_no + shift
            argvs.append(([command, CLI_LABELS[i % len(CLI_LABELS)],
                           "--format", formats[i % 2]], False))
        for i in (2 * deck_no, 2 * deck_no + 1):
            argvs.append((list(CLI_VERIFY[i % len(CLI_VERIFY)]), False))
        rng.shuffle(argvs)
        chunk = []
        for argv, out in argvs:
            chunk.append({"id": n, "argv": argv, "out": out})
            n += 1
        yield chunk


def time_is_up(elapsed: float, done: int, seconds: float,
               min_requests: int, hard_stop: float) -> bool:
    """Stop once the run time is spent and enough requests are done."""
    return elapsed >= hard_stop or (elapsed >= seconds
                                    and done >= min_requests)


def cli_key(argv: list[str], out: bool) -> str:
    """Name of a CLI request in the stored digests."""
    return " ".join(argv + (["--out", "<out>"] if out else []))
