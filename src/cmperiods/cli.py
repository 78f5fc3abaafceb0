"""Command-line front-end: check scenarios, run sweeps, explain checks.

Exit codes: 0 when every check passes, 1 when any check fails or errors
or the report cannot be written (``output error: <reason>`` on stderr),
2 on malformed input.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import ScenarioError
from .scenario import CHECK_KINDS, STRING_OPTIONS, emit_report, parse_scenario, run_checks, run_sweeps

if TYPE_CHECKING:
    import argparse

_FLAGS = {f"--{key.replace('_', '-')}": key for key in STRING_OPTIONS}

EXPLANATIONS = {
    "critical": [
        "Reads the exponent set T and weight w of the tensor of the rank-n",
        "datum with the rank-1 character off the doubled parameter rows and",
        "the character's exponent differences m_t - m_tbar, building no",
        "HodgeData, and returns the window (max{p in T : p < w/2},",
        "min{p in T : p > w/2}] of critical integers.  The middle exponent",
        "w/2 must not occur.",
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
        "If the three twist factors agree at every position (and the odd-rank",
        "middle), the square commutes coordinatewise for every character",
        "r*q^{k/2}; the pool fixes only 'checked'. A bad position sends all",
        "12^m pool characters through the check. The half-rank-two witness's",
        "patterns agree only as Weyl orbits.",
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
    import argparse  # imported here: with gettext it costs about 2 ms, which a spelled-out call skips

    parser = argparse.ArgumentParser(
        prog="cmperiods",
        description="Exact bookkeeping for critical L-value period identities over CM fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        for flag, key in _FLAGS.items():
            p.add_argument(flag, choices=STRING_OPTIONS[key].values, help=STRING_OPTIONS[key].help)
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


def read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse reads from ``check|sweep <scenario> [--<flag> <value>]...``, without argparse.

    None for any other argv and wherever argparse might read it otherwise: a
    scenario starting with ``-``, a flag not spelled out in full, a value
    outside the flag's choices, a seed not ``-``? and ASCII digits or past
    ``int``'s 4,300 digits.
    """
    if len(argv) < 2 or len(argv) % 2 or argv[0] not in ("check", "sweep") or argv[1].startswith("-"):
        return None
    args = {"command": argv[0], "scenario": argv[1], **dict.fromkeys(STRING_OPTIONS), "seed": None}
    for flag, value in zip(argv[2::2], argv[3::2]):
        digits = value.removeprefix("-")
        if flag == "--seed" and digits.isascii() and digits.isdigit():
            try:
                args["seed"] = int(value)
            except ValueError:
                return None
        elif flag in _FLAGS and value in STRING_OPTIONS[_FLAGS[flag]].values:
            args[_FLAGS[flag]] = value
        else:
            return None
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_canonical(argv) or build_parser().parse_args(argv)
    if args.command == "explain":
        print(f"check kind: {args.check_id}")
        for line in EXPLANATIONS[args.check_id]:
            print(f"  {line}")
        return 0
    try:
        scn = parse_scenario(args.scenario)
        for key in (*STRING_OPTIONS, "seed"):
            if getattr(args, key) is not None:
                setattr(scn.options, key, getattr(args, key))
        report = run_checks(scn) if args.command == "check" else run_sweeps(scn)
    except ScenarioError as exc:
        where = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"input error: {exc}{where}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(emit_report(report, scn.options.format))
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The interpreter flushes stdout again at exit, and would report the broken pipe there.
            sys.stdout = open(os.devnull, "w")
        print(f"output error: {exc.strerror}", file=sys.stderr)
        return 1
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
