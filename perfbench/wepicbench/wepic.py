"""The two Wepic workloads: ``wepic_build`` and ``wepic_live``.

Both run the paper's Figure-2 deployment (``sigmod``, ``SigmodFB`` and the
attendee peers).  Inputs come from the seed only; every expected relation
is computed here, from those inputs, by :class:`WepicModel`.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Set, Tuple

from repro.wepic.pictures import Picture
from repro.wepic.rules import SIGMOD_FB_PEER, SIGMOD_PEER

from wepicbench.common import Zipf
from wepicbench.deploy import FIXED_KNOBS, WepicDeployment, check_pinned, program_counters
from wepicbench.runner import Op

#: Generous cycle bound: a converge that needs more than this reports
#: ``converged=False`` and the operation counts as failed.
MAX_STEPS = 2000

#: Zipf exponent of picture popularity (ratings, comments and tags).
POPULARITY_EXPONENT = 1.1


def attendee_names(count: int) -> Tuple[str, ...]:
    return tuple(f"att{index:02d}" for index in range(count))


class WepicModel:
    """What every attendee should see, computed from the inputs alone.

    ``rate@p`` holds the ratings ``p`` authored plus those other attendees
    pushed to ``p`` as the picture's owner; ``attendeePictures@a`` and
    ``attendeeRatings@a`` are the unions over the attendees ``a`` selected.
    """

    def __init__(self, attendees: Tuple[str, ...]):
        self.attendees = attendees
        self.pictures: Dict[str, Dict[int, Picture]] = {a: {} for a in attendees}
        self.owner: Dict[int, str] = {}
        self.rate: Dict[str, Set[Tuple[int, int]]] = {a: set() for a in attendees}
        self.selected: Dict[str, Set[str]] = {a: set() for a in attendees}
        self.authorized: Set[int] = set()
        self.next_id = 1

    def new_picture(self, owner: str, rng: random.Random) -> Picture:
        picture = Picture(picture_id=self.next_id, name=f"{owner}-{self.next_id}.jpg",
                          owner=owner, data="%016x" % rng.getrandbits(64))
        self.next_id += 1
        self.pictures[owner][picture.picture_id] = picture
        self.owner[picture.picture_id] = owner
        return picture

    def add_rating(self, rater: str, picture_id: int, value: int) -> None:
        self.rate[rater].add((picture_id, value))
        owner = self.owner[picture_id]
        if owner != rater:
            self.rate[owner].add((picture_id, value))

    def viewers_of(self, *peers: str) -> List[str]:
        """Attendees whose pages read any of ``peers``."""
        wanted = set(peers)
        return [a for a in self.attendees if self.selected[a] & wanted]

    def attendee_pictures(self, attendee: str) -> Set[tuple]:
        return {(p.picture_id, p.name, p.owner, p.data)
                for other in self.selected[attendee]
                for p in self.pictures[other].values()}

    def attendee_ratings(self, attendee: str) -> Set[Tuple[int, int]]:
        return set().union(*(self.rate[other] for other in self.selected[attendee]))

    def wall(self, attendee: str) -> Set[tuple]:
        return {row[:3] for row in self.attendee_pictures(attendee)}

    def rating_summary(self, attendee: str) -> Dict[int, Tuple[float, int]]:
        groups: Dict[int, List[int]] = {}
        for picture_id, value in self.attendee_ratings(attendee):
            groups.setdefault(picture_id, []).append(value)
        return {pid: (sum(vs) / len(vs), len(vs)) for pid, vs in groups.items()}


def generate_network(rng: random.Random, attendees: Tuple[str, ...],
                     pictures_each: int, ratings_each: int, comments_each: int,
                     tags_each: int) -> Tuple[WepicModel, List[tuple]]:
    """A seeded conference: pictures, Zipf-popular annotations, selections of
    about half the others, and Facebook authorisation of half of each
    attendee's pictures.  Counts are fixed, so seeds differ only in which pictures,
    values and attendees are drawn.  Returns the model and the annotation
    stream to load."""
    model = WepicModel(attendees)
    for attendee in attendees:
        for _ in range(pictures_each):
            model.new_picture(attendee, rng)
    ranking = sorted(model.owner)
    rng.shuffle(ranking)
    annotations: List[tuple] = []
    for attendee in attendees:
        candidates = [pid for pid in ranking if model.owner[pid] != attendee]
        zipf = Zipf(len(candidates), POPULARITY_EXPONENT, rng)
        for _ in range(ratings_each):
            pid = candidates[zipf.rank()]
            value = rng.randint(1, 5)
            model.add_rating(attendee, pid, value)
            annotations.append(("rate", attendee, pid, value))
        for index in range(comments_each):
            annotations.append(("comment", attendee, candidates[zipf.rank()],
                                f"comment {index} by {attendee}"))
        for _ in range(tags_each):
            annotations.append(("tag", attendee, candidates[zipf.rank()],
                                rng.choice(attendees)))
    # Each attendee selects the next half of a seeded circle of attendees,
    # so everyone selects, and is selected by, the same number of others.
    circle = list(attendees)
    rng.shuffle(circle)
    half = max(1, (len(circle) - 1) // 2)
    for index, attendee in enumerate(circle):
        model.selected[attendee] = {circle[(index + step) % len(circle)]
                                    for step in range(1, half + 1)}
    for attendee in attendees:
        owned = sorted(model.pictures[attendee])
        model.authorized.update(rng.sample(owned, len(owned) // 2))
    return model, annotations


def load_network(deployment: WepicDeployment, model: WepicModel,
                 annotations: List[tuple]) -> None:
    apps = deployment.apps
    for attendee in model.attendees:
        for picture in model.pictures[attendee].values():
            apps[attendee].upload_picture(picture=picture)
    for kind, author, pid, value in annotations:
        owner = model.owner[pid]
        if kind == "rate":
            apps[author].rate_picture(pid, value, owner=owner)
        elif kind == "comment":
            apps[author].comment_picture(pid, value, owner=owner)
        else:
            apps[author].tag_picture(pid, value, owner=owner)
    for attendee in model.attendees:
        for other in sorted(model.selected[attendee]):
            apps[attendee].select_attendee(other)
    for pid in sorted(model.authorized):
        owner = model.owner[pid]
        apps[owner].authorize_facebook(model.pictures[owner][pid])


def _rows(peer, relation: str) -> Set[tuple]:
    return {fact.values for fact in peer.query(relation)}


def _diff(label: str, got: Set[tuple], want: Set[tuple]) -> List[str]:
    if got == want:
        return []
    return [f"{label}: {len(want - got)} missing, {len(got - want)} unexpected"]


def _summary_problems(label: str, facts, want: Dict[int, Tuple[float, int]]) -> List[str]:
    got = {fact.values[0]: (fact.values[1], fact.values[2]) for fact in facts}
    if len(got) != len(facts) or set(got) != set(want):
        return [f"{label}: groups {sorted(set(got) ^ set(want))[:5]} differ"]
    for pid, (avg, count) in want.items():
        got_avg, got_count = got[pid]
        if got_count != count or not math.isclose(got_avg, avg, rel_tol=1e-9):
            return [f"{label}: picture {pid} has ({got_avg}, {got_count}), "
                    f"expected ({avg}, {count})"]
    return []


# --------------------------------------------------------------------------- #
# wepic_build
# --------------------------------------------------------------------------- #

class BuildSession:
    """One freshly loaded Figure-2 deployment; its only operation converges it."""

    def __init__(self, workload: "WepicBuild"):
        rng = random.Random(workload.seed)
        size = workload.size
        self.model, annotations = generate_network(
            rng, attendee_names(size["attendees"]), size["pictures"],
            size["ratings"], size["comments"], size["tags"])
        self.deployment = WepicDeployment(self.model.attendees, replication="reliable",
                                          drop_probability=0.0,
                                          transport_seed=workload.seed)
        self.config = check_pinned(self.deployment.api, workload.pins)
        load_network(self.deployment, self.model, annotations)

    def check_setup(self) -> List[str]:
        return []

    def next_block(self) -> Iterator[Op]:
        yield Op("converge")

    def run(self, op: Op) -> bool:
        return self.deployment.api.converge(max_steps=MAX_STEPS).converged

    def check(self, op: Op) -> List[str]:
        model, api = self.model, self.deployment.api
        problems: List[str] = []
        for attendee in model.attendees:
            peer = api.peer(attendee).unwrap()
            problems += _diff(f"attendeePictures@{attendee}",
                              _rows(peer, "attendeePictures"),
                              model.attendee_pictures(attendee))
            problems += _diff(f"attendeeRatings@{attendee}",
                              _rows(peer, "attendeeRatings"),
                              model.attendee_ratings(attendee))
        every = {(p.picture_id, p.name, p.owner, p.data)
                 for pictures in model.pictures.values() for p in pictures.values()}
        problems += _diff("pictures@sigmod",
                          _rows(api.peer(SIGMOD_PEER).unwrap(), "pictures"), every)
        authorized = {row for row in every if row[0] in model.authorized}
        problems += _diff("pictures@SigmodFB",
                          _rows(api.peer(SIGMOD_FB_PEER).unwrap(), "pictures"),
                          authorized)
        return problems

    def counters(self) -> Dict[str, int]:
        return program_counters(self.deployment.api)

    def close(self) -> None:
        self.deployment.close()


class WepicBuild:
    """Load the Figure-2 conference and converge it, once per block."""

    setup_per_block = True
    checkpoint_ops = 1
    #: Builds in each pass of the traced run.
    traced_ops = 2
    sizes = {
        "full": {"attendees": 30, "pictures": 10, "ratings": 5, "comments": 2, "tags": 2},
        "tiny": {"attendees": 4, "pictures": 2, "ratings": 2, "comments": 1, "tags": 1},
    }

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.size = self.sizes[scale]
        self.pins = dict(FIXED_KNOBS, storage="memory", replication="reliable",
                         drop_probability=0.0)

    def setup(self) -> BuildSession:
        return BuildSession(self)

    @staticmethod
    def named_metrics(samples) -> Dict[str, Tuple[List[float], str]]:
        return {"converge_s": ([s for _, s in samples], "s")}


# --------------------------------------------------------------------------- #
# wepic_live
# --------------------------------------------------------------------------- #

#: One block of client actions: upload 40%, rate 35%, select 15%,
#: remove_picture 10%.  There are no deselects: the program drops a rating
#: that another selected peer still provides when one peer is deselected
#: (see "Known failure" in the README), so deselects could not pass their
#: check; ``remove_picture`` is the deleting write.
LIVE_BLOCK = ("upload",) * 8 + ("rate",) * 7 + ("select",) * 3 + ("remove",) * 2


class LiveSession:
    """A converged deployment with every attendee's wall and rating-summary
    pages open, over causal replication and a lossy transport."""

    def __init__(self, workload: "WepicLive"):
        rng = random.Random(workload.seed)
        size = workload.size
        self.model, annotations = generate_network(
            rng, attendee_names(size["attendees"]), size["pictures"],
            size["ratings"], 0, 0)
        self.rng = random.Random(workload.seed + 1)
        self.popularity: Dict[int, float] = {pid: self.rng.random()
                                             for pid in self.model.owner}
        self.zipf = Zipf(4096, POPULARITY_EXPONENT, self.rng)
        self.deployment = WepicDeployment(self.model.attendees, replication="causal",
                                          drop_probability=workload.drop_probability,
                                          transport_seed=workload.seed)
        self.config = check_pinned(self.deployment.api, workload.pins)
        load_network(self.deployment, self.model, annotations)
        self.converged = self.deployment.api.converge(max_steps=MAX_STEPS).converged
        self.pages = {}
        for attendee, app in self.deployment.apps.items():
            self.pages[attendee] = (app.wall_view(), app.rating_summary_view())
        self.converged &= self.deployment.api.converge(max_steps=MAX_STEPS).converged

    def check_setup(self) -> List[str]:
        if not self.converged:
            return ["set-up did not converge"]
        problems: List[str] = []
        for attendee in self.model.attendees:
            problems += self._pages_problems(attendee)
        return problems

    def _pages_problems(self, attendee: str, wall: bool = True,
                        summary: bool = True) -> List[str]:
        wall_view, summary_view = self.pages[attendee]
        problems: List[str] = []
        if wall:
            problems += _diff(f"wall of {attendee}", set(wall_view.rows()),
                              self.model.wall(attendee))
        if summary:
            problems += _summary_problems(f"ratingSummary of {attendee}",
                                          summary_view.facts(),
                                          self.model.rating_summary(attendee))
        return problems

    def _popular_picture(self) -> int:
        ranked = sorted(self.popularity, key=self.popularity.get)
        while True:
            rank = self.zipf.rank()
            if rank < len(ranked):
                return ranked[rank]

    def next_block(self) -> Iterator[Op]:
        """Seeded actions; the model is updated as each one is drawn, so a
        check right after the action compares against the right state."""
        model, rng = self.model, self.rng
        kinds = list(LIVE_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            attendee = rng.choice(model.attendees)
            unselected = [(a, other) for a in model.attendees for other in model.attendees
                          if other != a and other not in model.selected[a]]
            if kind == "select" and not unselected:
                kind = "upload"  # everyone already selects everyone else
            if kind == "upload":
                picture = model.new_picture(attendee, rng)
                self.popularity[picture.picture_id] = rng.random()
                yield Op("upload", (attendee, picture.picture_id))
            elif kind == "rate":
                pid, value = self._popular_picture(), rng.randint(1, 5)
                model.add_rating(attendee, pid, value)
                yield Op("rate", (attendee, pid, value))
            elif kind == "select":
                attendee, other = rng.choice(unselected)
                model.selected[attendee].add(other)
                yield Op("select", (attendee, other))
            else:
                owners = [a for a in model.attendees if model.pictures[a]]
                owner = rng.choice(owners)
                pid = rng.choice(sorted(model.pictures[owner]))
                del model.pictures[owner][pid]
                self.popularity.pop(pid)
                yield Op("remove", (owner, pid))

    def run(self, op: Op) -> bool:
        apps, model = self.deployment.apps, self.model
        attendee = op.args[0]
        if op.kind == "upload":
            apps[attendee].upload_picture(picture=model.pictures[attendee][op.args[1]])
        elif op.kind == "rate":
            _, pid, value = op.args
            apps[attendee].rate_picture(pid, value, owner=model.owner[pid])
        elif op.kind == "select":
            apps[attendee].select_attendee(op.args[1])
        else:
            apps[attendee].remove_picture(op.args[1])
        return self.deployment.api.converge(max_steps=MAX_STEPS).converged

    def check(self, op: Op) -> List[str]:
        """Every viewer whose pages the action touches sees it, or no longer does."""
        model = self.model
        problems: List[str] = []
        if op.kind in ("upload", "remove"):
            for viewer in model.viewers_of(op.args[0]):
                problems += self._pages_problems(viewer, summary=False)
        elif op.kind == "rate":
            rater, pid = op.args[0], op.args[1]
            for viewer in model.viewers_of(rater, model.owner[pid]):
                problems += self._pages_problems(viewer, wall=False)
        else:
            problems += self._pages_problems(op.args[0])
        return problems

    def counters(self) -> Dict[str, int]:
        return program_counters(self.deployment.api)

    def close(self) -> None:
        self.deployment.close()


class WepicLive:
    """Closed-loop actions against open pages, under causal replication with loss."""

    setup_per_block = False
    checkpoint_ops = len(LIVE_BLOCK)
    traced_ops = len(LIVE_BLOCK)
    drop_probability = 0.05
    sizes = {
        "full": {"attendees": 12, "pictures": 8, "ratings": 4},
        "tiny": {"attendees": 4, "pictures": 2, "ratings": 1},
    }

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.size = self.sizes[scale]
        self.pins = dict(FIXED_KNOBS, storage="memory", replication="causal",
                         drop_probability=self.drop_probability)

    def setup(self) -> LiveSession:
        return LiveSession(self)

    @staticmethod
    def named_metrics(samples) -> Dict[str, Tuple[List[float], str]]:
        return {"visible_ms": ([s * 1000 for _, s in samples], "ms")}
