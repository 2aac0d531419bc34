"""Seeded verdict items for the three benchmark workloads.

An item is one question put to fincat: its inputs are generated here from
the workload seed, ``run`` asks fincat for the verdict, and ``check``
compares the verdict with an answer known before the run.  Known answers
come from the construction itself (a relabeled copy is isomorphic to its
original), from relabeling invariance (counts equal those recorded for the
original input in ``answers.json``) and from the brute-force oracles of
``tests/helpers.py`` (functor counts).

Every item is generated from ``random.Random(f"{workload}:{seed}")``, so
one seed gives the same inputs byte for byte, and every round of a run
repeats the same items.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from functools import lru_cache
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from fincat import corpus
from fincat.cli import main as cli_main
from fincat.core import FinCat, FinFunctor, Morphism, enumerate_functors, find_isomorphism
from fincat.cosmos import nip_square_filler
from fincat.counterexamples import run_counterexample
from fincat.equivalence import EquivalenceWitness, classify_equivalence
from fincat.fibrations import classify_fibration
from fincat.wfs import compute_wf, factorize_wfs

ROOT = Path(__file__).resolve().parent.parent
ANSWERS_PATH = Path(__file__).resolve().parent / "answers.json"

# search: functors whose |mor(source)|·|mor(target)| exceeds this are left
# out.  Above it sit the six square/iso_arrow → chaotic(3) functors, whose
# check time moves 8x (0.16–1.3 s) from one relabeling to the next, so a
# single one of them would move a run's throughput by more than its bound;
# and the functors into chaotic(3) whose checks can outlast fy_family(3,4),
# which would move the tail percentile from one item to another.
SEARCH_SIZE_CAP = 32
SEARCH_COUNT_PAIRS = 24   # per round, enumerate_functors counts
# certify: validate sizes are a fixed ladder across 10–30.  A drawn size
# moves validation work by n⁴, so a seeded draw would move throughput and
# tail latency from seed to seed; the seed relabels and orders them.
VALIDATE_SIZES = (10, 20, 30)

SAMPLE_COMMANDS = (
    ("validate", "arrow.json"),
    ("classify", "--functor", "cod_iso_power.json"),
    ("factorize", "--functor", "arrow_to_terminal.json"),
    ("lift", "--square", "square.json"),
    ("limit", "pullback", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"),
    ("limit", "isocomma", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"),
    ("limit", "pseudolimit", "--f", "arrow_to_terminal.json"),
    ("limit", "inserter", "--f", "arrow_identity.json", "--g", "arrow_identity.json"),
    ("limit", "equifier", "--t1", "identity_cell.json", "--t2", "identity_cell.json"),
    ("limit", "split", "--e", "arrow_identity.json"),
    ("limit", "pullback-nif", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"),
    ("limit", "tower", "--tower", "tower.json"),
    ("leibniz", "--j", "endpoint_inclusion.json", "--p", "arrow_to_terminal.json"),
    ("wf", "--functor", "arrow_to_terminal.json"),
    ("cosmos-check", "--fragment", "fragment.json"),
    ("classify-sset", "--sset", "interval_sset.json"),
    ("powers-check", "--sset", "interval_sset.json", "--category", "arrow.json"),
    ("nerve", "--category", "arrow.json"),
)


@dataclass
class Item:
    key: str                       # the original input, as named in answers.json
    kind: str                      # selects the runner and the checker
    args: tuple
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Relabeling


class Relabeler:
    """Renames objects and morphisms and shuffles morphism order.  Equal
    categories are relabeled alike, so functors between the relabeled
    categories still compose."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._cats: dict[str, tuple[FinCat, dict, dict]] = {}

    def _relabel(self, C: FinCat):
        found = self._cats.get(C.key)
        if found is not None:
            return found
        tag = len(self._cats)
        perm = self.rng.sample(range(len(C.objects)), len(C.objects))
        onames = {a: f"x{tag}_{k}" for a, k in zip(C.objects, perm)}
        order = list(C.morphisms)
        self.rng.shuffle(order)
        mperm = self.rng.sample(range(len(order)), len(order))
        mnames = {m.name: f"f{tag}_{k}" for m, k in zip(order, mperm)}
        D = FinCat(
            [onames[a] for a in C.objects],
            [Morphism(mnames[m.name], onames[m.dom], onames[m.cod]) for m in order],
            {onames[a]: mnames[i] for a, i in C.identity.items()},
            {(mnames[g], mnames[f]): mnames[h] for (g, f), h in C.comp.items()},
            label=f"c{tag}",
        )
        self._cats[C.key] = (D, onames, mnames)
        return self._cats[C.key]

    def category(self, C: FinCat) -> FinCat:
        return self._relabel(C)[0]

    def functor(self, F: FinFunctor) -> FinFunctor:
        A, ao, am = self._relabel(F.source)
        B, bo, bm = self._relabel(F.target)
        return FinFunctor(
            A,
            B,
            {ao[a]: bo[x] for a, x in F.omap.items()},
            {am[m]: bm[n] for m, n in F.mmap.items()},
            label="g",
        )


def functor_node(F: FinFunctor) -> dict:
    return {
        "source": F.source.to_dict(),
        "target": F.target.to_dict(),
        "omap": dict(F.omap),
        "mmap": dict(F.mmap),
    }


def chaotic_table(n: int, rng: random.Random) -> dict:
    """chaotic(n) relabeled, written as the file format directly: building
    the FinCat would charge the validation work to set-up."""
    objs = [f"x{k}" for k in rng.sample(range(n), n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(pairs)
    mperm = rng.sample(range(n * n), n * n)
    name = {p: f"u{k}" for p, k in zip(pairs, mperm)}
    return {
        "objects": objs,
        "morphisms": [{"name": name[(i, j)], "dom": objs[i], "cod": objs[j]} for i, j in pairs],
        "identity": {objs[i]: name[(i, i)] for i in range(n)},
        "comp": [
            {"g": name[(j, k)], "f": name[(i, j)], "gf": name[(i, k)]}
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ],
    }


def chain_table(n: int, rng: random.Random) -> dict:
    """The order 0 < … < n-1 relabeled, in the file format."""
    objs = [f"x{k}" for k in rng.sample(range(n), n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rng.shuffle(pairs)
    mperm = rng.sample(range(len(pairs)), len(pairs))
    name = {p: f"a{k}" for p, k in zip(pairs, mperm)}
    return {
        "objects": objs,
        "morphisms": [{"name": name[(i, j)], "dom": objs[i], "cod": objs[j]} for i, j in pairs],
        "identity": {objs[i]: name[(i, i)] for i in range(n)},
        "comp": [
            {"g": name[(j, k)], "f": name[(i, j)], "gf": name[(i, k)]}
            for i in range(n)
            for j in range(i, n)
            for k in range(j, n)
        ],
    }


def broken_group_table(q: int, rng: random.Random) -> dict:
    """The cyclic group of order q with g1∘g1 set to g1: identities and
    endpoints stay lawful, associativity fails."""
    names = [f"e{k}" for k in rng.sample(range(q), q)]
    comp = {(i, j): (i + j) % q for i in range(q) for j in range(q)}
    comp[(1, 1)] = 1
    return {
        "objects": ["*"],
        "morphisms": [{"name": names[k], "dom": "*", "cod": "*"} for k in rng.sample(range(q), q)],
        "identity": {"*": names[0]},
        "comp": [{"g": names[i], "f": names[j], "gf": names[k]} for (i, j), k in comp.items()],
    }


# ---------------------------------------------------------------------------
# Pools of original inputs (named as in answers.json)


def search_functors() -> dict[str, FinFunctor]:
    return {
        F.label: F
        for F in corpus.corpus_functors()
        if F.source.n_morphisms * F.target.n_morphisms <= SEARCH_SIZE_CAP
    }


def fy_names() -> list[str]:
    return [f"fy_family({k},{a})" for k in range(5) for a in (2, 3, 4)]


# ---------------------------------------------------------------------------
# Round generation


@lru_cache(maxsize=1)
def known_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text())


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def search_round(seed: int, workdir: Path) -> list[Item]:
    rng = _rng("search", seed)
    answers = known_answers()["search"]
    pool = search_functors()
    items: list[Item] = []
    # one of the corpus's sampled functors for every (source, target) pair,
    # each through the criterion-1 and -10 checks: the seed picks which, so
    # every seed covers the same pairs and the latency spread stays put
    variants: dict[str, list[str]] = {}
    for label in sorted(pool):
        variants.setdefault(label.rsplit("#", 1)[0], []).append(label)
    for label in [rng.choice(v) for v in variants.values()]:
        G = Relabeler(rng).functor(pool[label])
        items.append(Item(f"wfs:{label}", "wfs", (G,), answers[f"wfs:{label}"]))
        items.append(Item(f"wf:{label}", "wf", (G,), answers[f"wf:{label}"]))
    for name in fy_names():
        items.append(Item(name, "fy", (name,), answers[name]))
    for C in corpus.corpus_categories():
        items.append(Item(f"iso:{C.label}", "iso", (C, Relabeler(rng).category(C))))
    cats = {C.label: C for C in corpus.corpus_categories()}
    count_keys = sorted(k for k in answers if k.startswith("count:"))
    for key in rng.sample(count_keys, SEARCH_COUNT_PAIRS):
        a, b = key[len("count:"):].split("|")
        relabel = Relabeler(rng)
        items.append(
            Item(key, "count", (relabel.category(cats[a]), relabel.category(cats[b])), answers[key])
        )
    rng.shuffle(items)
    return items


def certify_round(seed: int, workdir: Path) -> list[Item]:
    rng = _rng("certify", seed)
    answers = known_answers()["certify"]
    files: dict[str, object] = {}
    items: list[Item] = []

    def put(name, data) -> str:
        files[name] = data
        return str(workdir / name)

    for t, (base, maps) in enumerate(corpus.corpus_towers()):
        relabel = Relabeler(rng)
        node = {
            "base": relabel.category(base).to_dict(),
            "maps": [functor_node(relabel.functor(f)) for f in maps],
        }
        path = put(f"tower{t}.json", node)
        items.append(Item(f"tower:{t}", "cli", ("limit", "tower", "--tower", path), answers[f"tower:{t}"]))

    cospans = corpus.corpus_cospans_normal_left()
    for c in range(len(cospans)):
        relabel = Relabeler(rng)
        f, g = (relabel.functor(h) for h in cospans[c])
        fp, gp = put(f"cospan{c}_f.json", functor_node(f)), put(f"cospan{c}_g.json", functor_node(g))
        for command in ("pullback", "isocomma", "pullback-nif"):
            key = f"{command}:{c}"
            items.append(Item(key, "cli", ("limit", command, "--f", fp, "--g", gp), answers[key]))

    samples = ROOT / "sample_data"
    for command in SAMPLE_COMMANDS:
        argv = tuple(str(samples / a) if a.endswith(".json") else a for a in command)
        key = "sample:" + " ".join(command)
        items.append(Item(key, "cli", argv, answers[key]))
    items.append(
        Item("loop_sset", "cli", ("classify-sset", "--sset", str(samples / "loop_sset.json")), {"exit": 2})
    )

    for family, table, morphisms in (
        ("chaotic", chaotic_table, lambda n: n * n),
        ("chain", chain_table, lambda n: n * (n + 1) // 2),
    ):
        for k, n in enumerate(VALIDATE_SIZES):
            path = put(f"{family}{k}.json", table(n, rng))
            expect = {"exit": 0, "objects": n, "morphisms": morphisms(n)}
            items.append(Item(f"validate:{family}({n})", "cli", ("validate", path), expect))

    q = rng.randint(3, 8)
    path = put("broken.json", broken_group_table(q, rng))
    items.append(
        Item(f"validate:broken({q})", "cli", ("validate", path), {"exit": 1, "error": "AssociativityViolation"})
    )

    cats = corpus.corpus_categories()
    for k, C in enumerate(cats):
        path = put(f"nerve{k}.json", Relabeler(rng).category(C).to_dict())
        key = f"nerve:{C.label}"
        items.append(Item(key, "cli", ("nerve", "--category", path), answers[key]))

    relabel = Relabeler(rng)
    fragment = {
        "objects": [relabel.category(C).to_dict() for C in (cats[0], cats[3], cats[5])],
        "chosen": "normal",
        "label": "fragment",
    }
    path = put("fragment.json", fragment)
    items.append(Item("cosmos:fragment", "cli", ("cosmos-check", "--fragment", path), answers["cosmos:fragment"]))

    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (workdir / name).write_text(json.dumps(data, sort_keys=True))
    rng.shuffle(items)
    return items


def sweep_round(seed: int, workdir: Path) -> list[Item]:
    rng = _rng("sweep", seed)
    answers = known_answers()["sweep"]
    items = [
        Item(f"nip:{space}:{bound}", "nip", (space, bound), answers[f"nip:{space}:{bound}"])
        for space in ("finset", "finset_arrow")
        for bound in (1, 2, 3)
    ]
    rng.shuffle(items)
    return items


ROUNDS = {"search": search_round, "certify": certify_round, "sweep": sweep_round}


# ---------------------------------------------------------------------------
# Running (timed) and checking (untimed)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli_main.main(args=list(argv), prog_name="fincat")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def run(item: Item):
    """Ask fincat for the item's verdict.  Names are looked up at call time,
    so a tracer that rebinds them in this module sees these calls."""
    kind, args = item.kind, item.args
    if kind == "wfs":
        fac = factorize_wfs(*args)
        return fac, classify_equivalence(fac.left), classify_fibration(fac.right, grothendieck=False)
    if kind == "wf":
        return compute_wf(*args)
    if kind == "fy":
        return run_counterexample(*args)
    if kind == "iso":
        return find_isomorphism(*args)
    if kind == "count":
        return sum(1 for _ in enumerate_functors(*args))
    if kind == "nip":
        return nip_square_filler(*args)
    return run_cli(*args)


def _is_isomorphism(F: FinFunctor | None, A: FinCat, B: FinCat) -> bool:
    """Check an isomorphism on the raw tables, without fincat's own checks."""
    if F is None:
        return False
    if sorted(F.omap.values()) != sorted(B.objects) or sorted(F.mmap.values()) != sorted(
        m.name for m in B.morphisms
    ):
        return False
    bm = {m.name: m for m in B.morphisms}
    for m in A.morphisms:
        n = bm[F.mmap[m.name]]
        if (n.dom, n.cod) != (F.omap[m.dom], F.omap[m.cod]):
            return False
    if any(F.mmap[i] != B.identity[F.omap[a]] for a, i in A.identity.items()):
        return False
    return all(B.comp[(F.mmap[g], F.mmap[f])] == F.mmap[h] for (g, f), h in A.comp.items())


def _unlabeled(node):
    if isinstance(node, dict):
        return {k: _unlabeled(v) for k, v in node.items() if k not in LABEL_KEYS}
    if isinstance(node, list):
        return [_unlabeled(v) for v in node]
    return node


# A cached functor category keeps the label it was first built with, so in
# a process that has run other commands these fields can differ from a
# fresh process; the rest of the report may not.
LABEL_KEYS = frozenset({"label", "source_label", "target_label"})


def report_digest(payload) -> str:
    """Digest of a CLI result with its label fields left out."""
    return hashlib.sha256(json.dumps(_unlabeled(payload), sort_keys=True).encode()).hexdigest()


def _check_cli(expect: dict, result) -> list[str]:
    code, out, _err = result
    if code != expect["exit"]:
        return [f"exit {code}, expected {expect['exit']}"]
    if code == 2:
        return []
    envelope = json.loads(out.strip().splitlines()[-1])
    body = envelope["result"]
    wrong = []
    if envelope["pass"] != (code == 0):
        wrong.append("pass flag disagrees with the exit code")
    if "error" in expect and body.get("error") != expect["error"]:
        wrong.append(f"error {body.get('error')}, expected {expect['error']}")
    if "result_sha256" in expect and report_digest(body) != expect["result_sha256"]:
        wrong.append("report differs from the recorded one")
    if "objects" in expect:
        got = (body["category"]["objects"], body["category"]["morphisms"])
        if got != (expect["objects"], expect["morphisms"]):
            wrong.append(f"category size {got}")
    if "apex" in expect and [body["apex_summary"]["objects"], body["apex_summary"]["morphisms"]] != expect["apex"]:
        wrong.append("apex size differs")
    if "cones_checked" in expect and body["certificate"]["cones_checked"] != expect["cones_checked"]:
        wrong.append(f"cones_checked {body['certificate']['cones_checked']}")
    if "strict_oracle_agrees" in expect and body.get("strict_oracle_agrees") is not True:
        wrong.append("strict oracle disagrees")
    if "simplices" in expect and [len(level) for level in body["simplices"]] != expect["simplices"]:
        wrong.append("simplex counts differ")
    if "clauses" in expect:
        got = {k: len(v["entries"]) for k, v in body["clauses"].items()}
        if got != expect["clauses"] or not body["passed"]:
            wrong.append("axiom report differs")
    return wrong


def check(item: Item, result) -> list[str]:
    """Mismatches between a verdict and the item's known answer."""
    e = item.expect
    if item.kind == "wfs":
        fac, w, rep = result
        (F,) = item.args
        wrong = []
        if fac.left.then(fac.right) != F:
            wrong.append("not a factorization")
        if not (isinstance(w, EquivalenceWitness) and w.has_retraction):
            wrong.append("left leg is not an injective equivalence")
        if not rep.normal:
            wrong.append("right leg is not a normal isofibration")
        apex = fac.pseudolimit.apex
        if [apex.n_objects, apex.n_morphisms] != e["apex"]:
            wrong.append("apex size differs")
        return wrong
    if item.kind == "wf":
        return [] if result.ok and result.biconditionals == e["biconditionals"] else ["biconditionals differ"]
    if item.kind == "fy":
        # the paper's dichotomy: the square has a section exactly when k < alpha
        has_section = next(c.actual for c in result.claims if c.predicate == "square has a section")
        return [] if result.passed and has_section == (e["points"] < e["threshold"]) else ["fy verdict differs"]
    if item.kind == "iso":
        return [] if _is_isomorphism(result, *item.args) else ["no valid isomorphism"]
    if item.kind == "count":
        return [] if result == e["count"] else [f"count {result}, expected {e['count']}"]
    if item.kind == "nip":
        got = {
            "all_fill": result.all_fill,
            "squares_checked": result.squares_checked,
            "counterexample": result.counterexample is not None,
        }
        return [] if got == e else [f"nip verdict {got}"]
    return _check_cli(e, result)
