"""Command-line front-end: check scenarios, run sweeps, explain checks.

Exit codes: 0 when every check passes, 1 when any check fails or errors,
2 on malformed input.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ScenarioError
from .scenario import CHECK_KINDS, emit_report, parse_scenario, run_checks, run_sweeps

EXPLANATIONS = {
    "critical": [
        "Builds the tensor Hodge data of the rank-n datum with the rank-1",
        "character datum, collects its exponent set T and weight w, and",
        "returns the window (max{p in T : p < w/2}, min{p in T : p > w/2}]",
        "of critical integers.  The middle exponent w/2 must not occur.",
        "identities: critical-window",
    ],
    "signature": [
        "Computes the per-place signature count two ways: from the",
        "archimedean parameters (indices with 2*diff - kappa + 2A < 0) and",
        "from Hodge exponents (indices with 2p + p' - q' - w > 0), checks",
        "they agree, and verifies the split-index table sums to 1 and n.",
        "identities: signature-dictionary, split-index-table",
    ],
    "weights": [
        "Checks dominance, builds the doubling parameter",
        "  b_{t,i} = a_{t,s+i} + m_bar - m_t - s   (i <= r)",
        "  b_{t,i} = a_{t,i-r} + m_bar - m_t + r   (i > r)",
        "  b_0 = a_0 - n * sum m_bar,",
        "verifies block dominance, the two constructions of the rank-2n",
        "sharp-dual parameter, and conjugation equivariance over the group.",
        "identities: doubling-parameter, sharp-dual-construction,",
        "            conjugation-equivariance",
    ],
    "lemma_d": [
        "Verifies that the normalizing factor of the doubling identity,",
        "assembled term by term from its n constituent L-values with the",
        "finite-order period substituted by disc^{1/2} * gauss-sum, equals",
        "the closed form",
        "  (2 pi i)^{d((2m+kappa)n - n(n-1)/2)} disc^{ceil(n/2)/2}",
        "  * quad-char-period^{floor(n/2)} * gauss-sum^n",
        "as exact exponent vectors over the full stated parameter sweep.",
        "identities: normalizing-factor-closed-form,",
        "            finite-order-period-factorization",
    ],
    "compare": [
        "Assembles the Rankin-Selberg period side and the motivic period",
        "prediction at every admissible critical integer and tests their",
        "quotient for membership in the declared relation lattice.  The",
        "two printed formulas evaluate their L-functions at points offset",
        "by one half, so the transcendental exponent shifts by exactly",
        "n*d half-units; the shift is derived, checked, and reported, and",
        "any further transcendental mismatch lands in the residual.",
        "identities: period-dictionary (conditional), motivic-q0-of-character,",
        "            motivic-q1-of-character, cm-period-conjugation,",
        "            quad-period-factorization, cm-type-sign-squared,",
        "            finite-order-period-factorization, and at level fgal",
        "            rationality:cm-type-sign, rationality:disc^1/2,",
        "            rationality:imag-product, rationality:quad-char-period",
        "The standard_vs_refined detail compares the standard period side",
        "with its refined CM-period expansion in a lattice of its own:",
        "  petersson-factorization (level fgal), pairing-proportionality",
    ],
    "basechange": [
        "Sweeps unramified unitary-side characters through both routes of",
        "the twist/base-change square and checks linear-side Weyl",
        "equivalence; also records the half-exponent twist patterns, which",
        "agree only up to the Weyl group once the half-rank exceeds one.",
        "identities: modulus-half-exponents, base-change-on-satake-data,",
        "            twist-commutativity",
    ],
    "ephi": [
        "Computes the displacement sign (-1)^{#(Phi \\ g Phi)} at every",
        "family point through every group element reaching it, verifies",
        "well-definedness, and checks invariance under the CM-type",
        "stabilizer for every CM type of the model.",
        "identities: displacement-sign-family, stabilizer-invariance",
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmperiods",
        description="Exact bookkeeping for critical L-value period identities over CM fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--level", choices=["q", "fgal", "e"], help="rationality level")
        p.add_argument("--tate", choices=["on", "off"], help="enable the conditional period dictionary")
        p.add_argument("--d-exponent", choices=["thm", "intro"], dest="d_exponent",
                       help="discriminant-exponent variant of the standard period side")
        p.add_argument("--format", choices=["structured", "text"], dest="fmt", help="report format")
        p.add_argument("--seed", type=int, help="seed for randomized sweeps")

    p_check = sub.add_parser("check", help="run the checks declared in a scenario file")
    p_check.add_argument("scenario")
    add_common(p_check)

    p_sweep = sub.add_parser("sweep", help="run randomized property sweeps for a scenario")
    p_sweep.add_argument("scenario")
    add_common(p_sweep)

    p_explain = sub.add_parser("explain", help="print the identities and formulas behind a check kind")
    p_explain.add_argument("check_id", choices=sorted(CHECK_KINDS))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "explain":
        print(f"check kind: {args.check_id}")
        for line in EXPLANATIONS[args.check_id]:
            print(f"  {line}")
        return 0
    try:
        scn = parse_scenario(args.scenario)
        for attr in ("level", "tate", "d_exponent", "fmt"):
            value = getattr(args, attr, None)
            if value is not None:
                setattr(scn.options, attr, value)
        if args.seed is not None:
            scn.options.seed = args.seed
        scn.options.level_enum()
        scn.options.tate_enabled()
        report = run_checks(scn) if args.command == "check" else run_sweeps(scn)
    except ScenarioError as exc:
        where = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"input error: {exc}{where}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, scn.options.fmt))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
