"""Command-line front end.

Subcommands: `check` (bracket identity verification), `profile` (all series,
indices and the bound verdict for one ideal), `normalize` (right-normed
normal form of an expression, with an optional evaluation cross-check), and
`search` (corpus sweep over small tensors).

Exit status: 0 all checks passed, 1 a mathematical check failed, 2 input or
usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import (
    ChainVerificationError,
    IdealHandle,
    is_antisymmetric,
    right_identity_sides,
    verify_left_leibniz,
    verify_right_leibniz,
)
from .files import (
    load_algebra_file,
    profile_report,
    tool_stamp,
    write_report,
)
from .linalg import Vector
from .search import run_search
from .series import (
    FOUND,
    NEVER,
    SAMPLES,
    bk_chain,
    compute_series,
    es_nil_k,
    profile_from_series,
    verify_paper_inclusions,
)
from .terms import evaluate, leaves, measures, normalize, parse

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _identity_line(failures, name: str, lie_hint: bool = False) -> str:
    if not failures:
        return f"{name}: OK" + (" (Lie)" if lie_hint else "")
    return f"{name}: FAILED ({len(failures)} basis triples)"


def _print_failures(alg, failures, limit: int = 5) -> None:
    """Print the right identity's two sides at the first `limit` failing triples."""
    for i, j, k in failures[:limit]:
        lhs, rhs = right_identity_sides(alg, (i, j, k))
        print(f"  triple (e{i}, e{j}, e{k}): lhs = {lhs}, rhs = {rhs}")
    if len(failures) > limit:
        print(f"  ... and {len(failures) - limit} more")


def cmd_check(args) -> int:
    loaded = load_algebra_file(args.path)
    alg = loaded.algebra
    right = verify_right_leibniz(alg)
    left = verify_left_leibniz(alg)
    lie = not right and not left and is_antisymmetric(alg)
    print(f"algebra {alg.name} (dim {alg.dim} over {alg.field!r})")
    print(_identity_line(right, "right Leibniz") + ", " +
          _identity_line(left, "left Leibniz", lie_hint=lie))
    if right:
        _print_failures(alg, right)
    if args.json:
        report = {
            "tool": tool_stamp(),
            "algebra": {"name": alg.name, "dim": alg.dim},
            "right_leibniz": not right,
            "left_leibniz": not left,
            "lie": lie,
            "right_failures": [list(t) for t in right],
            "left_failures": [list(t) for t in left],
        }
        write_report(report, args.json)
    return EXIT_MATH if right else EXIT_OK


_NEVER_TEXT = {
    "left": "not left nilpotent (fixed point)",
    "general": "not nilpotent (definitive via right fixed point)",
    "strong": "not strongly nilpotent (definitive via right fixed point)",
}


def _status_text(index, status, noun: str) -> str:
    if status == FOUND:
        return f"{noun} index {index}"
    if status == NEVER:
        return _NEVER_TEXT[noun]
    return f"{noun} index undetermined (bound exhausted)"


def _dims_text(dims: list[int], limit: int = 10) -> str:
    if len(dims) <= limit:
        return str(dims)
    return "[" + ", ".join(str(d) for d in dims[:limit]) + f", ...x{len(dims)}]"


def cmd_profile(args) -> int:
    loaded = load_algebra_file(args.path)
    alg = loaded.algebra
    right = verify_right_leibniz(alg)
    if right:
        print(f"algebra {alg.name}: right Leibniz identity FAILED; no profile")
        _print_failures(alg, right)
        return EXIT_MATH
    if args.ideal is not None:
        if args.ideal not in loaded.ideals:
            raise ValueError(f"no ideal named {args.ideal!r} in {args.path}")
        space = loaded.ideals[args.ideal]
        ideal_name = args.ideal
    else:
        space = alg.full_space()
        ideal_name = "full"
    b = IdealHandle(alg, space)  # re-validates two-sidedness

    bundle = compute_series(b, args.nmax, args.kmax)
    chain = bk_chain(bundle)
    profile = profile_from_series(bundle)
    checks = verify_paper_inclusions(bundle, chain, min(args.nmax, 10))

    print(f"algebra {alg.name} (dim {alg.dim} over {alg.field!r}), ideal: {ideal_name}")
    rp_dims = bundle.right.dims()
    if profile.right_status == NEVER:
        print(f"right powers  dims {_dims_text(rp_dims)}: not right nilpotent "
              f"(fixed point at dim {rp_dims[-1]})")
    else:
        print(f"right powers  dims {_dims_text(rp_dims)}: "
              f"{_status_text(profile.right_index, profile.right_status, 'right')}")
    print(f"left powers   dims {_dims_text(bundle.left.dims())}: "
          f"{_status_text(profile.left_index, profile.left_status, 'left')}")
    level_dims = _dims_text(bundle.levels.dims())
    print(f"general       dims {level_dims}: "
          f"{_status_text(profile.general_index, profile.general_status, 'general')}")
    print(f"strong levels dims {level_dims}: "
          f"{_status_text(profile.strong_index, profile.strong_status, 'strong')}")

    es_bits = [f"Es(B) dim {bundle.es_space.dim}"]
    for side, translates in (("right", bundle.es_right), ("left", bundle.es_left)):
        if translates.end == FOUND:
            es_bits.append(f"Es_{es_nil_k(translates)}-{side} nil")
        elif translates.end == NEVER:
            es_bits.append(f"not Es_k-{side} nil for any k (fixed point)")
        else:
            es_bits.append(f"Es-{side} verdict undetermined")
    print("; ".join(es_bits))

    if profile.theorem_bound is not None:
        verdict = profile.bound_verdict.upper()
        print(f"bound 4n^2-2n+1 = {profile.theorem_bound}: {verdict}"
              + (f" (strong index {profile.strong_index})"
                 if profile.strong_index is not None else ""))
        if profile.alt_bound is not None and profile.alt_bound != profile.theorem_bound:
            print(f"bound with k = max(es_k, n): {profile.alt_bound}")
    else:
        print("bound 4n^2-2n+1: n/a (right index undefined)")

    failed = [check for check in checks if not check.passed]
    print(f"inclusion checks: {len(checks) - len(failed)}/{len(checks)} passed "
          f"(seed {args.seed}, {SAMPLES} samples per check)")
    for check in failed:
        print(f"  FAILED {check.name}: {check.detail}")

    if args.json:
        write_report(profile_report(ideal_name, bundle, chain, profile, checks, args.seed),
                     args.json)

    return EXIT_MATH if failed else EXIT_OK


def _parse_assignments(pairs, alg):
    assignment = {}
    for pair in pairs or []:
        name, sep, coords = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"bad --assign {pair!r}, expected NAME=c1,c2,...")
        parts = coords.split(",")
        if len(parts) != alg.dim:
            raise ValueError(f"--assign {name}: expected {alg.dim} coordinates")
        assignment[name] = Vector(alg.field,
                                  tuple(alg.field.parse(c.strip()) for c in parts))
    return assignment


def cmd_normalize(args) -> int:
    tree = parse(args.expression)
    length, weight = measures(tree)
    if length > args.max_term_length:
        raise ValueError(
            f"term length {length} exceeds --max-term-length {args.max_term_length}")
    combo = normalize(tree)
    print(f"input:  length {length}, weight {weight}")
    print(f"normal: {combo}")
    if args.algebra is None:
        return EXIT_OK
    loaded = load_algebra_file(args.algebra)
    alg = loaded.algebra
    assignment = _parse_assignments(args.assign, alg)
    missing = sorted({leaf.name for leaf in leaves(tree)} - set(assignment))
    if missing:
        raise ValueError(f"unassigned generators: {', '.join(missing)}")
    direct = evaluate(tree, assignment, alg)
    via_normal = evaluate(combo, assignment, alg)
    agree = direct == via_normal
    print(f"evaluate(tree)   = {direct}")
    print(f"evaluate(normal) = {via_normal}")
    print("MATCH" if agree else "MISMATCH")
    return EXIT_OK if agree else EXIT_MATH


def _parse_field_flag(text: str) -> int:
    if text.upper().startswith("F"):
        try:
            return int(text[1:])
        except ValueError:
            pass
    raise ValueError(f"--field expects Fp notation like F3, got {text!r}")


def cmd_search(args) -> int:
    p = _parse_field_flag(args.field)
    report = run_search(args.dim, p, args.samples, args.seed, limit=args.limit)
    print(f"search dim {args.dim} over GF({p}), mode {report['params']['mode']}, "
          f"seed {args.seed}")
    print(f"candidates: {report['candidates']} ({report['unique_candidates']} unique), "
          f"valid right Leibniz: {report['valid']}")
    print(f"right nilpotent: {report['right_nilpotent']}, "
          f"left-but-not-right nilpotent: {report['left_not_right_count']}")
    print(f"max strong index by right index: {report['max_strong_by_right_index']}")
    print(f"bound violations: {len(report['bound_violations'])}, "
          f"sandwich violations: {report['sandwich_violations']}, "
          f"filtration violations: {report['filtration_violations']}")
    if report["partial"]:
        print("NOTE: candidate cap hit, report is partial")
    if args.json:
        write_report(report, args.json)
    return EXIT_MATH if report["filtration_violations"] else EXIT_OK


@functools.cache  # parse_args leaves the parser as it was; each call gets a new Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnil",
        description="Nilpotency analysis of finite-dimensional Leibniz algebras "
                    "over Q or GF(p), with exact arithmetic throughout.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify the bracket identities")
    p_check.add_argument("path")
    p_check.add_argument("--json", metavar="OUT", default=None)
    p_check.set_defaults(func=cmd_check)

    p_profile = sub.add_parser("profile", help="compute all series and indices")
    p_profile.add_argument("path")
    p_profile.add_argument("--ideal", metavar="NAME", default=None,
                           help="analyze a named ideal from the file "
                                "(default: the full algebra)")
    p_profile.add_argument("--nmax", type=int, default=64)
    p_profile.add_argument("--kmax", type=int, default=None,
                           help="translate-series bound (default dim+1)")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--json", metavar="OUT", default=None)
    p_profile.set_defaults(func=cmd_profile)

    p_norm = sub.add_parser("normalize", help="right-normed normal form of an expression")
    p_norm.add_argument("expression")
    p_norm.add_argument("--algebra", metavar="PATH", default=None,
                        help="evaluate both forms in this algebra as a cross-check")
    p_norm.add_argument("--assign", action="append", metavar="NAME=c1,c2,...",
                        help="vector assignment for a generator (repeatable)")
    p_norm.add_argument("--max-term-length", type=int, default=10)
    p_norm.set_defaults(func=cmd_normalize)

    p_search = sub.add_parser("search", help="sweep small structure-constant tensors")
    p_search.add_argument("--dim", type=int, default=2)
    p_search.add_argument("--field", default="F3", help="Fp notation, e.g. F3")
    p_search.add_argument("--samples", type=int, default=None,
                          help="0 = exhaustive (dim <= 3); default: exhaustive for "
                               "dim <= 2, else 5000")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--limit", type=int, default=None,
                          help="cap on processed candidates; hitting it flags the "
                               "report as partial")
    p_search.add_argument("--json", metavar="OUT", default=None)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChainVerificationError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
