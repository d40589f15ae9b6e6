"""The ``hub_pages`` workload: one peer on file-backed SQLite serving pages.

``rate@hub(user, picture, stars)`` is bulk-loaded with Zipf-skewed pictures;
the standing pages are the ``board`` aggregate (average and count of stars
per picture) and eight ``picks`` filters bound to one picture each.  The
expected answers come from a Python set of the live rows.
"""

from __future__ import annotations

import math
import os
import random
import shutil
from typing import Dict, Iterator, List, Set, Tuple

from repro.core.facts import Fact

from wepicbench.common import Zipf
from wepicbench.deploy import FIXED_KNOBS, builder, check_pinned, program_counters
from wepicbench.runner import Op

HUB = "hub"
MAX_STEPS = 2000
POPULARITY_EXPONENT = 1.1
#: Popularity ranks of the pictures the eight picks pages are bound to.
PICK_RANKS = (0, 1, 3, 7, 15, 31, 63, 127)
#: One block: inserts 50%, standing-page reads 20%, ad-hoc page opens 20%,
#: deletes 10%, always in this order.
HUB_BLOCK = ("insert", "read", "insert", "open", "insert", "delete", "insert",
             "read", "insert", "open")

BOARD = "board($p, avg($s), count($s)) :- rate@hub($u, $p, $s)"


class HubSession:
    """One hub peer with its standing pages open, and the shadow of its rows."""

    def __init__(self, workload: "HubPages"):
        size = workload.size
        self.rng = random.Random(workload.seed)
        self.users = [f"u{index:04d}" for index in range(size["users"])]
        pictures = [f"p{index:04d}" for index in range(size["pictures"])]
        self.rng.shuffle(pictures)
        self.pictures = pictures
        self.zipf = Zipf(len(pictures), POPULARITY_EXPONENT, self.rng)
        self.rows: Set[Tuple[str, str, int]] = set()
        while len(self.rows) < size["facts"]:
            self.rows.add(self._new_row())
        workload.sequence += 1
        self.path = os.path.join(workload.scratch, f"hub-{os.getpid()}-{workload.sequence}")
        os.makedirs(self.path)
        self.api = None
        try:
            chain = builder("sqlite", "reliable", 0.0, workload.seed, path=self.path)
            self.api = chain.peer(HUB).program(
                f"collection extensional persistent rate@{HUB}(user, picture, stars);"
            ).build()
            self.config = check_pinned(self.api, workload.pins)
            self.config.update(self._flush_policy())
            hub = self.api.peer(HUB)
            hub.insert_many([Fact("rate", HUB, row) for row in sorted(self.rows)])
            self.converged = self.api.converge(max_steps=MAX_STEPS).converged
            self.board = self.api.query(HUB, BOARD)
            self.picked = [pictures[rank] for rank in PICK_RANKS if rank < len(pictures)]
            self.picks = [self.api.query(HUB, f'picks($u, $s) :- rate@hub($u, "{p}", $s)')
                          for p in self.picked]
            self.converged &= self.api.converge(max_steps=MAX_STEPS).converged
        except BaseException:
            self.close()
            raise

    def _flush_policy(self) -> Dict[str, object]:
        backend = self.api.peer(HUB).unwrap().engine.state.backend
        journal = backend.execute("PRAGMA journal_mode").fetchone()[0]
        synchronous = backend.execute("PRAGMA synchronous").fetchone()[0]
        return {"sqlite_journal_mode": journal,
                "sqlite_synchronous": {0: "OFF", 1: "NORMAL", 2: "FULL",
                                       3: "EXTRA"}.get(synchronous, synchronous)}

    def _new_row(self) -> Tuple[str, str, int]:
        return (self.rng.choice(self.users), self.pictures[self.zipf.rank()],
                self.rng.randint(1, 5))

    # -- the Python shadow ------------------------------------------------- #

    def _board(self) -> Dict[str, Tuple[float, int]]:
        groups: Dict[str, List[int]] = {}
        for _, picture, stars in self.rows:
            groups.setdefault(picture, []).append(stars)
        return {p: (sum(s) / len(s), len(s)) for p, s in groups.items()}

    def _board_problems(self, facts, pictures=None) -> List[str]:
        want = self._board()
        got = {fact.values[0]: fact.values[1:] for fact in facts}
        if len(got) != len(facts):
            return ["board has duplicate picture rows"]
        keys = set(want) | set(got) if pictures is None else set(pictures)
        for picture in sorted(keys):
            if (picture in want) != (picture in got):
                return [f"board row {picture}: present={picture in got}, "
                        f"expected={picture in want}"]
            if picture in want:
                (avg, count), (got_avg, got_count) = want[picture], got[picture]
                if got_count != count or not math.isclose(got_avg, avg, rel_tol=1e-9):
                    return [f"board row {picture}: ({got_avg}, {got_count}), "
                            f"expected ({avg}, {count})"]
        return []

    def _picks_problems(self, picture: str, answer) -> List[str]:
        want = {(u, s) for u, p, s in self.rows if p == picture}
        if set(answer) != want or len(answer) != len(want):
            return [f"picks of {picture}: {len(answer)} rows, expected {len(want)}"]
        return []

    # -- the client ---------------------------------------------------------- #

    def check_setup(self) -> List[str]:
        if not self.converged:
            return ["set-up did not converge"]
        problems = self._board_problems(self.board.facts())
        for picture, view in zip(self.picked, self.picks):
            problems += self._picks_problems(picture, view.rows())
        return problems

    def next_block(self) -> Iterator[Op]:
        for kind in HUB_BLOCK:
            if kind == "insert":
                row = self._new_row()
                while row in self.rows:
                    row = self._new_row()
                self.rows.add(row)
                yield Op("insert", row)
            elif kind == "delete":
                row = self.rng.choice(sorted(self.rows))
                self.rows.discard(row)
                yield Op("delete", row)
            elif kind == "open":
                yield Op("open", (self.rng.choice(self.users),))
            else:
                yield Op("read")

    def run(self, op: Op) -> bool:
        self.answer = None
        if op.kind == "read":
            self.answer = (self.board.facts(), [view.rows() for view in self.picks])
            return True
        if op.kind == "open":
            page = self.api.query(HUB, f'mine($p, $s) :- rate@hub("{op.args[0]}", $p, $s)')
            converged = self.api.converge(max_steps=MAX_STEPS).converged
            self.answer = page.rows()
            page.close()
            return converged
        fact = Fact("rate", HUB, op.args)
        if op.kind == "insert":
            self.api.peer(HUB).insert(fact)
        else:
            self.api.peer(HUB).delete(fact)
        return self.api.converge(max_steps=MAX_STEPS).converged

    def check(self, op: Op) -> List[str]:
        if op.kind == "open":
            want = {(p, s) for u, p, s in self.rows if u == op.args[0]}
            if set(self.answer) != want or len(self.answer) != len(want):
                return [f"mine page: {len(self.answer)} rows, expected {len(want)}"]
            return []
        if op.kind == "read":
            board, picks = self.answer
            problems: List[str] = []
            for picture, answer in zip(self.picked, picks):
                problems += self._picks_problems(picture, answer)
            return problems + self._board_problems(board)
        picture = op.args[1]
        problems = self._board_problems(self.board.facts(), [picture])
        if picture in self.picked:
            view = self.picks[self.picked.index(picture)]
            problems += self._picks_problems(picture, view.rows())
        return problems

    def counters(self) -> Dict[str, int]:
        return program_counters(self.api)

    def close(self) -> None:
        if self.api is not None:
            self.api.close()
            self.api = None
        shutil.rmtree(self.path, ignore_errors=True)


class HubPages:
    """Inserts, deletes, ad-hoc page opens and standing-page reads on one store."""

    setup_per_block = False
    checkpoint_ops = len(HUB_BLOCK)
    traced_ops = len(HUB_BLOCK)
    sizes = {
        "full": {"facts": 5000, "users": 400, "pictures": 300},
        "tiny": {"facts": 200, "users": 20, "pictures": 30},
    }

    def __init__(self, seed: int, scale: str = "full", scratch: str = "."):
        self.seed = seed
        self.size = self.sizes[scale]
        self.scratch = scratch
        self.sequence = 0
        self.pins = dict(FIXED_KNOBS, storage="sqlite", replication="reliable",
                         drop_probability=0.0)

    def setup(self) -> HubSession:
        return HubSession(self)

    @staticmethod
    def named_metrics(samples) -> Dict[str, Tuple[List[float], str]]:
        by_kind: Dict[str, List[float]] = {}
        for kind, seconds in samples:
            by_kind.setdefault(kind, []).append(seconds * 1000)
        names = {"insert": "insert", "delete": "delete", "open": "page_open",
                 "read": "page_read"}
        return {f"{names[kind]}_ms": (values, "ms") for kind, values in by_kind.items()}
