"""Command-line interface.

Every command prints a single report envelope on standard output:
{"command", "inputs" (path + content digest), "settings", "result",
"pass", "timing_ms"}.  Identical inputs and settings produce identical
payloads apart from the timing field.  Exit codes: 0 when every asserted
claim holds, 1 when a claim fails (the witness is in the payload), 2 for
usage, format, or budget errors.

The header comes from click (see ``_reported``): ``command`` is the path
of subcommand names (``limit pullback``), and ``inputs`` are the
parameters that name files.  A new command declares neither by hand.
"""
from __future__ import annotations

import functools
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
    UnknownName,
    bounded,
    bounds,
    field,
    refused,
)
from .cosmos import CosmosFragment, check_fragment, nip_square_filler
from .counterexamples import run_counterexample
from .equivalence import EquivalenceWitness
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


def _reported(body):
    """Make ``body`` a command that prints one envelope.

    ``body`` takes the command's parameters and returns (result, passed).
    The envelope's ``command`` is the path of subcommand names below the
    root, and its ``inputs`` are the parameters of type ``click.Path``,
    each keyed by its name without ``_path``.  A law error becomes a
    failing result (exit 1); any other library error is refused (exit 2).
    """

    @functools.wraps(body)
    def run(**params):
        ctx = click.get_current_context()
        names, node = [], ctx
        while node.parent is not None:
            names.insert(0, node.info_name)
            node = node.parent
        command = " ".join(names)
        inputs = {
            p.name.removesuffix("_path"): params[p.name]
            for p in ctx.command.params
            if isinstance(p.type, click.Path)
        }
        started = time.perf_counter()
        try:
            result, passed = body(**params)
        except _LAW_ERRORS as exc:
            result, passed = {"error": type(exc).__name__, "detail": str(exc)}, False
        except FinCatError as exc:
            _refuse(command, exc)
        sys.exit(_emit(ctx, command, inputs, result, passed, time.perf_counter() - started))

    return run


@main.command()
@click.argument("category", type=click.Path(exists=True))
@_reported
def validate(category):
    """Check all category laws of a table file."""
    cat = load_category(category)
    return {"category": category_summary(cat), "valid": True}, True


@main.command()
@click.option("--functor", "functor_path", required=True, type=click.Path(exists=True))
@_reported
def classify(functor_path):
    """Classify a functor: isofibration flags and equivalence kinds."""
    F = load_functor(functor_path)
    report = classify_fibration(F)
    w = F.equivalence
    equivalence = (
        {"is_equivalence": True, "kinds": sorted(w.kinds)}
        if isinstance(w, EquivalenceWitness)
        else {"is_equivalence": False, "reason": w.reason}
    )
    return {"fibration": report.to_dict(), "equivalence": equivalence}, True


@main.command()
@click.option("--functor", "functor_path", required=True, type=click.Path(exists=True))
@_reported
def factorize(functor_path):
    """Factor a functor as an injective equivalence followed by a normal
    isofibration."""
    F = load_functor(functor_path)
    fac = factorize_wfs(F)
    composite_ok = fac.left.then(fac.right) == F
    ok = composite_ok and fac.left.equivalence.has_retraction and fac.right.fibration.normal
    return {
        "left": functor_summary(fac.left),
        "right": functor_summary(fac.right),
        "apex": category_summary(fac.pseudolimit.apex),
        "composite_equals_input": composite_ok,
    }, ok


@main.command()
@click.option("--square", "square_path", required=True, type=click.Path(exists=True))
@_reported
def lift(square_path):
    """Solve a lifting square {i, p, top, bottom} of functor nodes."""
    data = load_json(square_path)
    base = Path(square_path).parent
    keys = ("i", "p", "top", "bottom")  # left, right, top, bottom
    problem = LiftingProblem(*(functor_from_node(field(data, k, ""), base, k) for k in keys))
    filler = solve_lifting(problem)
    verified = problem.is_filler(filler)
    return {"filler": functor_summary(filler), "verified": verified}, verified


@main.group()
def limit():
    """Limit constructions."""


def _limit_result(witness):
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
@_reported
def limit_pullback(f_path, g_path):
    return _limit_result(pullback_strict(load_functor(f_path), load_functor(g_path)))


@limit.command("isocomma")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.option("--g", "g_path", required=True, type=click.Path(exists=True))
@_reported
def limit_isocomma(f_path, g_path):
    return _limit_result(isocomma(load_functor(f_path), load_functor(g_path)))


@limit.command("pseudolimit")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@_reported
def limit_pseudolimit(f_path):
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


@limit.command("inserter")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.option("--g", "g_path", required=True, type=click.Path(exists=True))
@_reported
def limit_inserter(f_path, g_path):
    return _limit_result(inserter(load_functor(f_path), load_functor(g_path)))


@limit.command("equifier")
@click.option("--t1", "t1_path", required=True, type=click.Path(exists=True))
@click.option("--t2", "t2_path", required=True, type=click.Path(exists=True))
@_reported
def limit_equifier(t1_path, t2_path):
    return _limit_result(equifier(load_transformation(t1_path), load_transformation(t2_path)))


@limit.command("split")
@click.option("--e", "e_path", required=True, type=click.Path(exists=True))
@_reported
def limit_split(e_path):
    s = split_idempotent(load_functor(e_path))
    return {
        "apex": s.apex.to_dict(),
        "apex_summary": category_summary(s.apex),
        "retraction": functor_summary(s.retraction),
        "inclusion": functor_summary(s.inclusion),
    }, True


@limit.command("pullback-nif")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True))
@click.option("--g", "g_path", required=True, type=click.Path(exists=True))
@_reported
def limit_pullback_nif(f_path, g_path):
    f, g = load_functor(f_path), load_functor(g_path)
    np = build_normal_pullback(f, g)
    strict = pullback_strict(f, g)
    agrees = find_isomorphism_over(np.witness, strict) is not None
    payload, ok = _limit_result(np.witness)
    payload["strict_oracle_agrees"] = agrees
    return payload, ok and agrees


@limit.command("tower")
@click.option("--tower", "tower_path", required=True, type=click.Path(exists=True))
@_reported
def limit_tower(tower_path):
    data = load_json(tower_path)
    base_dir = Path(tower_path).parent
    base_node = field(data, "base", "")
    nodes = field(data, "maps", "", list, "a list", default=[])
    base = category_from_node(base_node, base_dir, "base")
    maps = [functor_from_node(node, base_dir, f"maps[{k}]") for k, node in enumerate(nodes)]
    tl = tower_limit(base, maps)
    strict = strict_tower_limit(base, maps)
    agrees = find_isomorphism_over(tl.witness, strict) is not None
    payload, ok = _limit_result(tl.witness)
    payload["strict_oracle_agrees"] = agrees
    return payload, ok and agrees


@main.command()
@click.option("--j", "j_path", required=True, type=click.Path(exists=True))
@click.option("--p", "p_path", required=True, type=click.Path(exists=True))
@_reported
def leibniz(j_path, p_path):
    """Leibniz power of an isofibration by an injective-on-objects functor."""
    res = leibniz_power(load_functor(j_path), load_functor(p_path))
    return {"induced": functor_summary(res.induced), "report": res.report.to_dict()}, True


@main.command()
@click.option("--functor", "functor_path", required=True, type=click.Path(exists=True))
@_reported
def wf(functor_path):
    """Compare a functor with its induced iso-power comparison map."""
    F = load_functor(functor_path)
    res = compute_wf(F)
    return {
        "comparison": functor_summary(res.comparison),
        "arrow_flags": F.fibration.flags,
        "comparison_flags": res.comparison.fibration.flags,
        "biconditionals": res.biconditionals,
    }, res.ok


@main.command("cosmos-check")
@click.option("--fragment", "fragment_path", required=True, type=click.Path(exists=True))
@_reported
def cosmos_check(fragment_path):
    """Check the axiom clauses over a declared fragment."""
    data = load_json(fragment_path)
    base = Path(fragment_path).parent
    nodes = field(data, "objects", "", list, "a list")
    chosen = field(data, "chosen", "", str, "a string", default="normal")
    label = field(data, "label", "", str, "a string")
    caps = {}
    for key, name in (("power_budget", "budget"), ("tower_bound", "tower")):
        value = caps[name] = data.get(key, getattr(bounds(), name))
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise refused(key, "expected a non-negative integer")
    objects = (category_from_node(node, base, f"objects[{k}]") for k, node in enumerate(nodes))
    frag = CosmosFragment(tuple(objects), chosen, label)
    with bounded(**caps):
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


@main.command()
@click.option("--space", type=click.Choice(["finset", "finset-arrow"]), required=True)
@click.option("--size-bound", default=3, show_default=True)
@_reported
def nip(space, size_bound):
    """Split-mono / split-epi lifting search up to a size bound."""
    return nip_square_filler(space.replace("-", "_"), size_bound).to_dict(), True


@main.command()
@click.option("--category", "category_path", required=True, type=click.Path(exists=True))
@_reported
def nerve(category_path):
    """Truncated nerve of a category."""
    return nerve_truncated(load_category(category_path)).to_dict(), True


@main.command("classify-sset")
@click.option("--sset", "sset_path", required=True, type=click.Path(exists=True))
@_reported
def classify_sset(sset_path):
    """Classifying category of a truncated simplicial set."""
    cat = classifying_category(load_sset(sset_path))
    return cat.to_dict() | {"summary": category_summary(cat)}, True


@main.command("powers-check")
@click.option("--sset", "sset_path", required=True, type=click.Path(exists=True))
@click.option("--category", "category_path", required=True, type=click.Path(exists=True))
@click.option("--dim", default=2, show_default=True)
@_reported
def powers_check(sset_path, category_path, dim):
    """Compare the hom simplicial set with the nerve of the functor
    category out of the classifying category."""
    rep = check_powers_iso(load_sset(sset_path), load_category(category_path), dim)
    return rep.to_dict(), rep.ok


@main.command()
@click.argument("name")
@_reported
def counterexample(name):
    """Run a named witness from the catalog."""
    w = run_counterexample(name)
    return w.to_dict(), w.passed


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
