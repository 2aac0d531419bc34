"""Write perfbench/answers.json: the known answer of every original input.

Run from the repository root: ``python3 perfbench/make_answers.py``.

Functor counts come from the brute-force oracle in ``tests/helpers.py``.
The other entries are the verdicts and counts of the original (not
relabeled) inputs; a relabeled input must reproduce them.  Rerun this only
when the corpus or a report format changes on purpose, and review the diff.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

from helpers import brute_force_functors  # noqa: E402

from fincat import corpus, funcat  # noqa: E402
from fincat.cosmos import nip_square_filler  # noqa: E402
from fincat.limits import build_normal_pullback, isocomma, pullback_strict, tower_limit  # noqa: E402
from fincat.nerve import nerve_truncated  # noqa: E402
from fincat.wfs import compute_wf, factorize_wfs  # noqa: E402

# pairs whose brute-force candidate count is at most this are counted
BRUTE_FORCE_CAP = 4000


def brute_force_work(A, B) -> int:
    """Candidate morphism maps the brute-force oracle walks for A → B."""
    total = 0

    def rec(idx, omap):
        nonlocal total
        if idx == len(A.objects):
            prod = 1
            for m in A.morphisms:
                prod *= len(B.hom(omap[m.dom], omap[m.cod]))
            total += prod
            return
        for x in B.objects:
            omap[A.objects[idx]] = x
            rec(idx + 1, omap)

    rec(0, {})
    return total


def limit_answer(w, **extra) -> dict:
    cert = w.certificate
    assert cert.ok
    return {"exit": 0, "apex": [w.apex.n_objects, w.apex.n_morphisms], "cones_checked": cert.cones_checked} | extra


def main() -> None:
    import items

    # the sample reports first, each from an empty functor-category cache as
    # in a fresh CLI process: cached categories keep the label they were built with
    certify: dict[str, dict] = {}
    samples = HERE.parent / "sample_data"
    for command in items.SAMPLE_COMMANDS:
        funcat._CACHE.clear()
        argv = [str(samples / a) if a.endswith(".json") else a for a in command]
        code, out, err = items.run_cli(*argv)
        assert code == 0, err
        body = json.loads(out.strip().splitlines()[-1])["result"]
        certify["sample:" + " ".join(command)] = {"exit": 0, "result_sha256": items.report_digest(body)}

    search: dict[str, dict] = {}
    for label, F in sorted(items.search_functors().items()):
        apex = factorize_wfs(F).pseudolimit.apex
        search[f"wfs:{label}"] = {"apex": [apex.n_objects, apex.n_morphisms]}
        res = compute_wf(F)
        assert res.ok
        search[f"wf:{label}"] = {"biconditionals": res.biconditionals}
    for name in items.fy_names():
        k, alpha = (int(t) for t in name[len("fy_family("):-1].split(","))
        search[name] = {"points": k, "threshold": alpha}
    cats = corpus.corpus_categories()
    for A in cats:
        for B in cats:
            if brute_force_work(A, B) <= BRUTE_FORCE_CAP:
                search[f"count:{A.label}|{B.label}"] = {"count": len(brute_force_functors(A, B))}

    for t, (base, maps) in enumerate(corpus.corpus_towers()):
        certify[f"tower:{t}"] = limit_answer(tower_limit(base, maps).witness, strict_oracle_agrees=True)
    for c, (f, g) in enumerate(corpus.corpus_cospans_normal_left()):
        certify[f"pullback:{c}"] = limit_answer(pullback_strict(f, g))
        certify[f"isocomma:{c}"] = limit_answer(isocomma(f, g))
        certify[f"pullback-nif:{c}"] = limit_answer(build_normal_pullback(f, g).witness, strict_oracle_agrees=True)
    for C in cats:
        certify[f"nerve:{C.label}"] = {"exit": 0, "simplices": [len(level) for level in nerve_truncated(C).simplices]}
    code, out, err = items.run_cli("cosmos-check", "--fragment", str(samples / "fragment.json"))
    assert code == 0, err
    report = json.loads(out.strip().splitlines()[-1])["result"]
    certify["cosmos:fragment"] = {"exit": 0, "clauses": {k: len(v["entries"]) for k, v in report["clauses"].items()}}

    sweep: dict[str, dict] = {}
    for space in ("finset", "finset_arrow"):
        for bound in (1, 2, 3):
            r = nip_square_filler(space, bound)
            sweep[f"nip:{space}:{bound}"] = {
                "all_fill": r.all_fill,
                "squares_checked": r.squares_checked,
                "counterexample": r.counterexample is not None,
            }

    out_path = HERE / "answers.json"
    out_path.write_text(json.dumps({"search": search, "certify": certify, "sweep": sweep}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}: {len(search)} search, {len(certify)} certify, {len(sweep)} sweep answers")


if __name__ == "__main__":
    main()
