"""Command-line interface.

Every command prints a single report envelope on standard output:
{"command", "inputs" (path + content digest), "settings", "result",
"pass", "timing_ms"}.  Identical inputs and settings produce identical
payloads apart from the timing field.  Exit codes: 0 when every asserted
claim holds, 1 when a claim fails (the witness is in the payload), 2 for
usage, format, or budget errors.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from .core import (
    AssociativityViolation,
    BoundaryViolation,
    Bounds,
    BudgetExceeded,
    FinCatError,
    IdentityViolation,
    NotFunctorial,
    NotInvertible,
    NotNatural,
    StructureError,
    UnknownName,
    bounded,
    bounds,
)
from .cosmos import CosmosFragment, check_fragment, nip_square_filler
from .counterexamples import run_counterexample
from .equivalence import EquivalenceWitness, classify_equivalence
from .fibrations import classify_fibration
from .limits import (
    build_normal_pullback,
    equifier,
    inserter,
    isocomma,
    pseudolimit_of_arrow,
    pullback_strict,
    split_idempotent,
    strict_tower_limit,
    tower_limit,
    find_isomorphism_over,
)
from .nerve import check_powers_iso, classifying_category, nerve_truncated
from .serialize import (
    category_from_node,
    category_summary,
    digest_file,
    functor_from_node,
    functor_summary,
    load_category,
    load_functor,
    load_json,
    load_sset,
    load_transformation,
)
from .wfs import LiftingProblem, compute_wf, factorize_wfs, leibniz_power, solve_lifting

_LAW_ERRORS = (
    AssociativityViolation,
    IdentityViolation,
    BoundaryViolation,
    NotFunctorial,
    NotNatural,
    NotInvertible,
)


@click.group()
@click.option(
    "--budget",
    type=click.IntRange(min=0),
    default=Bounds().budget,
    show_default=True,
    help="Functor enumeration budget.",
)
@click.option(
    "--tower-bound",
    type=click.IntRange(min=0),
    default=Bounds().tower,
    show_default=True,
    help="Maximal tower length.",
)
@click.option(
    "--word-bound",
    type=click.IntRange(min=0),
    default=Bounds().word,
    show_default=True,
    help="Word length bound for classifying categories.",
)
@click.option("--pretty", is_flag=True, help="Indent the JSON payload.")
@click.pass_context
def main(ctx, budget, tower_bound, word_bound, pretty):
    """Finite-category toolkit: validation, classification, limits,
    factorization, nerves, and the counterexample catalog."""
    ctx.obj = {"pretty": pretty}
    # every subcommand runs under the flags; the scope closes with the
    # command, also on sys.exit
    ctx.with_resource(bounded(budget=budget, tower=tower_bound, word=word_bound))


def _inputs_entry(path):
    return {"path": str(path), "sha256": digest_file(path)}


def _emit(ctx, command, inputs, result, passed, seconds) -> int:
    settings = bounds()
    envelope = {
        "command": command,
        "inputs": {k: _inputs_entry(v) for k, v in inputs.items()},
        "settings": {
            "budget": settings.budget,
            "tower_bound": settings.tower,
            "word_bound": settings.word,
        },
        "result": result,
        "pass": passed,
        "timing_ms": round(seconds * 1000, 3),
    }
    indent = 2 if ctx.obj["pretty"] else None
    click.echo(json.dumps(envelope, sort_keys=True, ensure_ascii=False, indent=indent))
    return 0 if passed else 1


def _refuse(command, exc: FinCatError):
    """Report an error that refutes no claim on standard error; exit 2."""
    click.echo(
        json.dumps(
            {"command": command, "error": type(exc).__name__, "detail": str(exc)},
            sort_keys=True,
            ensure_ascii=False,
        ),
        err=True,
    )
    sys.exit(2)


def _run(ctx, command, inputs, worker):
    """Run a worker returning (result, passed); map errors to exit codes."""
    started = time.perf_counter()
    try:
        result, passed = worker()
    except _LAW_ERRORS as exc:
        result, passed = {"error": type(exc).__name__, "detail": str(exc)}, False
    except FinCatError as exc:
        _refuse(command, exc)
    sys.exit(_emit(ctx, command, inputs, result, passed, time.perf_counter() - started))


@main.command()
@click.argument("category", type=click.Path(exists=True))
@click.pass_context
def validate(ctx, category):
    """Check all category laws of a table file."""

    def worker():
        cat = load_category(category)
        return {"category": category_summary(cat), "valid": True}, True

    _run(ctx, "validate", {"category": category}, worker)


@main.command()
@click.option("--functor", "functor_path", required=True, type=click.Path(exists=True))
@click.pass_context
def classify(ctx, functor_path):
    """Classify a functor: isofibration flags and equivalence kinds."""

    def worker():
        F = load_functor(functor_path)
        report = classify_fibration(F)
        w = classify_equivalence(F)
        equivalence = (
            {"is_equivalence": True, "kinds": sorted(w.kinds)}
            if isinstance(w, EquivalenceWitness)
            else {"is_equivalence": False, "reason": w.reason}
        )
        return {"fibration": report.to_dict(), "equivalence": equivalence}, True

    _run(ctx, "classify", {"functor": functor_path}, worker)


@main.command()
@click.option("--functor", "functor_path", required=True, type=click.Path(exists=True))
@click.pass_context
def factorize(ctx, functor_path):
    """Factor a functor as an injective equivalence followed by a normal
    isofibration."""

    def worker():
        F = load_functor(functor_path)
        fac = factorize_wfs(F)
        left_w = classify_equivalence(fac.left)
        composite_ok = fac.left.then(fac.right) == F
        ok = (
            composite_ok
            and isinstance(left_w, EquivalenceWitness)
            and left_w.has_retraction
            and classify_fibration(fac.right, grothendieck=False).normal
        )
        return {
            "left": functor_summary(fac.left),
            "right": functor_summary(fac.right),
            "apex": category_summary(fac.pseudolimit.apex),
            "composite_equals_input": composite_ok,
        }, ok

    _run(ctx, "factorize", {"functor": functor_path}, worker)


@main.command()
@click.option("--square", "square_path", required=True, type=click.Path(exists=True))
@click.pass_context
def lift(ctx, square_path):
    """Solve a lifting square {i, p, top, bottom} of functor nodes."""

    def worker():
        data = load_json(square_path)
        base = Path(square_path).parent
        if not isinstance(data, dict):
            raise StructureError("square: expected a JSON object")
        edges = []  # left, right, top, bottom
        for key in ("i", "p", "top", "bottom"):
            if key not in data:
                raise StructureError(f"square: missing {key!r}")
            try:
                edges.append(functor_from_node(data[key], base))
            except StructureError as exc:
                raise StructureError(f"{key}: {exc}") from exc
        problem = LiftingProblem(*edges)
        filler = solve_lifting(problem)
        return {
            "filler": functor_summary(filler),
            "verified": problem.is_filler(filler),
        }, problem.is_filler(filler)

    _run(ctx, "lift", {"square": square_path}, worker)


@main.group()
def limit():
    """Limit constructions."""


def _limit_worker(ctx, witness):
    return {
        "apex": witness.apex.to_dict(),
        "apex_summary": category_summary(witness.apex),
        "projections": [functor_summary(p) for p in witness.projections],
        "structure_cells": [
            {"components": dict(c.components)} for c in witness.structure_cells
        ],
        "certificate": witness.certificate.to_dict(),
    }, witness.certificate.ok


@limit.command("pullback")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.option("--g", "g_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_pullback(ctx, f_path, g_path):
    def worker():
        return _limit_worker(ctx, pullback_strict(load_functor(f_path), load_functor(g_path)))

    _run(ctx, "limit pullback", {"f": f_path, "g": g_path}, worker)


@limit.command("isocomma")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.option("--g", "g_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_isocomma(ctx, f_path, g_path):
    def worker():
        return _limit_worker(ctx, isocomma(load_functor(f_path), load_functor(g_path)))

    _run(ctx, "limit isocomma", {"f": f_path, "g": g_path}, worker)


@limit.command("pseudolimit")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_pseudolimit(ctx, f_path):
    def worker():
        pl = pseudolimit_of_arrow(load_functor(f_path))
        return {
            "apex": pl.apex.to_dict(),
            "apex_summary": category_summary(pl.apex),
            "to_source": functor_summary(pl.to_source),
            "to_target": functor_summary(pl.to_target),
            "diagonal": functor_summary(pl.diagonal),
            "cell": dict(pl.cell.components),
            "certificate": pl.witness.certificate.to_dict(),
        }, pl.witness.certificate.ok

    _run(ctx, "limit pseudolimit", {"f": f_path}, worker)


@limit.command("inserter")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.option("--g", "g_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_inserter(ctx, f_path, g_path):
    def worker():
        return _limit_worker(ctx, inserter(load_functor(f_path), load_functor(g_path)))

    _run(ctx, "limit inserter", {"f": f_path, "g": g_path}, worker)


@limit.command("equifier")
@click.option("--t1", "t1_path", required=True, type=click.Path(exists=True))
@click.option("--t2", "t2_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_equifier(ctx, t1_path, t2_path):
    def worker():
        return _limit_worker(
            ctx, equifier(load_transformation(t1_path), load_transformation(t2_path))
        )

    _run(ctx, "limit equifier", {"t1": t1_path, "t2": t2_path}, worker)


@limit.command("split")
@click.option("--e", "e_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_split(ctx, e_path):
    def worker():
        s = split_idempotent(load_functor(e_path))
        return {
            "apex": s.apex.to_dict(),
            "apex_summary": category_summary(s.apex),
            "retraction": functor_summary(s.retraction),
            "inclusion": functor_summary(s.inclusion),
        }, True

    _run(ctx, "limit split", {"e": e_path}, worker)


@limit.command("pullback-nif")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.option("--g", "g_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_pullback_nif(ctx, f_path, g_path):
    def worker():
        f, g = load_functor(f_path), load_functor(g_path)
        np = build_normal_pullback(f, g)
        strict = pullback_strict(f, g)
        agrees = find_isomorphism_over(np.witness, strict) is not None
        payload, ok = _limit_worker(ctx, np.witness)
        payload["strict_oracle_agrees"] = agrees
        return payload, ok and agrees

    _run(ctx, "limit pullback-nif", {"f": f_path, "g": g_path}, worker)


@limit.command("tower")
@click.option("--tower", "tower_path", required=True, type=click.Path(exists=True))
@click.pass_context
def limit_tower(ctx, tower_path):
    def worker():
        data = load_json(tower_path)
        base_dir = Path(tower_path).parent
        if not isinstance(data, dict):
            raise StructureError("tower: expected a JSON object")
        if "base" not in data:
            raise StructureError("tower: missing 'base'")
        nodes = data.get("maps", [])
        if not isinstance(nodes, list):
            raise StructureError("tower: maps: expected a list")
        base = category_from_node(data["base"], base_dir)
        maps = [functor_from_node(node, base_dir) for node in nodes]
        tl = tower_limit(base, maps)
        strict = strict_tower_limit(base, maps)
        agrees = find_isomorphism_over(tl.witness, strict) is not None
        payload, ok = _limit_worker(ctx, tl.witness)
        payload["strict_oracle_agrees"] = agrees
        return payload, ok and agrees

    _run(ctx, "limit tower", {"tower": tower_path}, worker)


@main.command()
@click.option("--j", "j_path", required=True, type=click.Path(exists=True))
@click.option("--p", "p_path", required=True, type=click.Path(exists=True))
@click.pass_context
def leibniz(ctx, j_path, p_path):
    """Leibniz power of an isofibration by an injective-on-objects functor."""

    def worker():
        res = leibniz_power(load_functor(j_path), load_functor(p_path))
        return {
            "induced": functor_summary(res.induced),
            "report": res.report.to_dict(),
        }, True

    _run(ctx, "leibniz", {"j": j_path, "p": p_path}, worker)


@main.command()
@click.option("--functor", "functor_path", required=True, type=click.Path(exists=True))
@click.pass_context
def wf(ctx, functor_path):
    """Compare a functor with its induced iso-power comparison map."""

    def worker():
        res = compute_wf(load_functor(functor_path))
        return {
            "comparison": functor_summary(res.comparison),
            "arrow_flags": res.arrow_report.to_dict()["flags"],
            "comparison_flags": res.comparison_report.to_dict()["flags"],
            "biconditionals": res.biconditionals,
        }, res.ok

    _run(ctx, "wf", {"functor": functor_path}, worker)


@main.command("cosmos-check")
@click.option("--fragment", "fragment_path", required=True, type=click.Path(exists=True))
@click.pass_context
def cosmos_check(ctx, fragment_path):
    """Check the axiom clauses over a declared fragment."""

    def worker():
        data = load_json(fragment_path)
        base = Path(fragment_path).parent
        if not isinstance(data, dict):
            raise StructureError("fragment: expected a JSON object")
        if "objects" not in data:
            raise StructureError("fragment: missing 'objects'")
        if not isinstance(data["objects"], list):
            raise StructureError("fragment: objects: expected a list")
        for key in ("chosen", "label"):
            if key in data and not isinstance(data[key], str):
                raise StructureError(f"fragment: {key}: expected a string")
        for key in ("power_budget", "tower_bound"):
            value = data.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise StructureError(f"fragment: {key}: expected a non-negative integer")
        frag = CosmosFragment(
            objects=tuple(category_from_node(n, base) for n in data["objects"]),
            chosen=data.get("chosen", "normal"),
            label=data.get("label", Path(fragment_path).stem),
        )
        with bounded(
            budget=data.get("power_budget", bounds().budget),
            tower=data.get("tower_bound", bounds().tower),
        ):
            report = check_fragment(frag)
        skipped = sum(clause.budget_errors for clause in report.clauses.values())
        if skipped:
            first = next(
                entry
                for clause in report.clauses.values()
                for entry in clause.entries
                if entry.witness.startswith("skipped: ")
            )
            raise BudgetExceeded(
                f"fragment {frag.label}: the budget skipped {skipped} checks,"
                f" first {first.description}: {first.witness.removeprefix('skipped: ')}"
            )
        return report.to_dict(), report.passed

    _run(ctx, "cosmos-check", {"fragment": fragment_path}, worker)


@main.command()
@click.option("--space", type=click.Choice(["finset", "finset-arrow"]), required=True)
@click.option("--size-bound", default=3, show_default=True)
@click.pass_context
def nip(ctx, space, size_bound):
    """Split-mono / split-epi lifting search up to a size bound."""

    def worker():
        res = nip_square_filler(space.replace("-", "_"), size_bound)
        return res.to_dict(), True

    _run(ctx, "nip", {}, worker)


@main.command()
@click.option("--category", "category_path", required=True, type=click.Path(exists=True))
@click.pass_context
def nerve(ctx, category_path):
    """Truncated nerve of a category."""

    def worker():
        C = load_category(category_path)
        return nerve_truncated(C).to_dict(), True

    _run(ctx, "nerve", {"category": category_path}, worker)


@main.command("classify-sset")
@click.option("--sset", "sset_path", required=True, type=click.Path(exists=True))
@click.pass_context
def classify_sset(ctx, sset_path):
    """Classifying category of a truncated simplicial set."""

    def worker():
        X = load_sset(sset_path)
        cat = classifying_category(X)
        return cat.to_dict() | {"summary": category_summary(cat)}, True

    _run(ctx, "classify-sset", {"sset": sset_path}, worker)


@main.command("powers-check")
@click.option("--sset", "sset_path", required=True, type=click.Path(exists=True))
@click.option("--category", "category_path", required=True, type=click.Path(exists=True))
@click.option("--dim", default=2, show_default=True)
@click.pass_context
def powers_check(ctx, sset_path, category_path, dim):
    """Compare the hom simplicial set with the nerve of the functor
    category out of the classifying category."""

    def worker():
        X = load_sset(sset_path)
        Y = load_category(category_path)
        rep = check_powers_iso(X, Y, dim)
        return rep.to_dict(), rep.ok

    _run(ctx, "powers-check", {"sset": sset_path, "category": category_path}, worker)


@main.command()
@click.argument("name")
@click.pass_context
def counterexample(ctx, name):
    """Run a named witness from the catalog."""

    def worker():
        w = run_counterexample(name)
        return w.to_dict(), w.passed

    _run(ctx, "counterexample", {}, worker)


@main.command()
@click.argument("suite_name")
@click.option("--only", default="", help="Comma-separated criterion numbers.")
@click.pass_context
def suite(ctx, suite_name, only):
    """Run a named suite; ``acceptance`` emits one envelope per criterion,
    each as soon as its criterion ends."""
    command = f"suite {suite_name}"
    codes = []
    try:
        if suite_name != "acceptance":
            raise UnknownName(f"no suite named {suite_name}")
        try:
            numbers = [int(tok) for tok in only.split(",") if tok.strip()]
        except ValueError:
            raise UnknownName("bad --only list") from None
        from .acceptance import run_acceptance

        for r in run_acceptance(numbers):
            codes.append(
                _emit(ctx, f"{command} #{r.number}", {}, r.to_dict(), r.passed, r.duration)
            )
    except FinCatError as exc:
        _refuse(command, exc)
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
