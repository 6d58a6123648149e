"""Command line front end.

Exit codes: 0 on success, 1 when a requested check or verification fails,
2 on bad input (unparseable files, unknown labels, unusable options, tables
with no poset behind them).
All output is deterministic for fixed inputs and flags.
"""

import argparse
import sys

from .algebra import IncidenceAlgebra, MultiplicationTable
from .checks import CORPORA, check_table, get_corpus, run_poset_checks
from .errors import ParseError, PosetAlgebraError
from .ideals import (
    enumerate_ideals,
    format_ideal,
    ideal_lattice_dot,
    is_indecomposable,
    maximal_ideals,
    maximal_indecomposable_ideals,
)
from .poset import (
    covers,
    format_poset,
    hasse_dot,
    longest_chain_length,
    pair_poset_dot,
    parse_poset,
)
from .recovery import recover_table
from .rewriting import (
    MAX_PROBE_DEGREE,
    build_rewrite_system,
    dimension_up_to,
    reduce_word,
)


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        where = "stdin" if path == "-" else path
        raise ParseError("%s is not UTF-8 text: %s" % (where, e)) from None


def _emit(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_poset(path):
    return parse_poset(_read_text(path))


def _load_table(path):
    return MultiplicationTable.from_json_text(_read_text(path))


def cmd_info(args):
    P = _load_poset(args.input)
    strict = P.strict_pair_count()
    # the reflexive algebra has a generator per comparable pair, the
    # irreflexive one per strict pair
    print(
        "n=%d strict_pairs=%d covers=%d longest_chain=%d comparable_pairs=%d "
        "generators_reflexive=%d generators_irreflexive=%d"
        % (
            P.n,
            strict,
            len(covers(P)),
            longest_chain_length(P),
            P.n + strict,
            P.n + strict,
            strict,
        )
    )
    return 0


def cmd_ideals(args):
    P = _load_poset(args.input)
    A = IncidenceAlgebra(P, "reflexive")
    ideals = sorted(
        enumerate_ideals(A, cap=args.cap), key=lambda I: (I.dimension(), I.up_mask)
    )
    max_masks = set(M.up_mask for M in maximal_ideals(A))
    top_masks = set(M.up_mask for M in maximal_indecomposable_ideals(A))
    full = (1 << A.dim) - 1
    for I in ideals:
        flags = []
        if I.is_zero:
            flags.append("zero")
        if I.up_mask == full and A.dim > 0:
            flags.append("full")
        if is_indecomposable(I):
            flags.append("indecomposable")
        if I.up_mask in top_masks:
            flags.append("maximal-indecomposable")
        if I.up_mask in max_masks:
            flags.append("maximal")
        print(" ".join([format_ideal(I)] + flags))
    print("total=%d" % len(ideals))
    return 0


def _print_check_line(name, n_pass, n_skip, failures):
    if failures:
        detail = failures[0]
        print(
            "check %s: FAIL (%d of %d) %s"
            % (name, len(failures), n_pass + n_skip + len(failures), detail)
        )
    elif n_skip:
        print("check %s: PASS (%d posets, %d skipped)" % (name, n_pass, n_skip))
    else:
        print("check %s: PASS (%d posets)" % (name, n_pass))


def cmd_check(args):
    if args.table is not None:
        results = check_table(_load_table(args.table))
        failed = 0
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            failed += not r.passed
            line = "check %s: %s" % (r.name, status)
            if r.detail:
                line += " " + r.detail
            print(line)
        print("summary: %d checks, %d failed" % (len(results), failed))
        return 1 if failed else 0

    if args.corpus is not None:
        posets = get_corpus(args.corpus)
    else:
        posets = [_load_poset(args.poset)]
    seeds = (args.seed, args.seed + 1)
    agg = {}  # name -> [passed, skipped, failure details], in first-seen order
    for P in posets:
        for r in run_poset_checks(P, seeds=seeds, enum_cap=args.cap):
            entry = agg.setdefault(r.name, [0, 0, []])
            if not r.passed:
                entry[2].append(r.detail)
            elif r.skipped:
                entry[1] += 1
            else:
                entry[0] += 1
    failed_names = 0
    for name, (n_pass, n_skip, failures) in agg.items():
        failed_names += bool(failures)
        _print_check_line(name, n_pass, n_skip, failures)
    print(
        "summary: %d posets, %d checks, %d failed"
        % (len(posets), len(agg), failed_names)
    )
    return 1 if failed_names else 0


def cmd_recover(args):
    table = _load_table(args.input)
    via_products, via_links = recover_table(table)
    agree = via_products == via_links
    print("dim=%d" % table.dim)
    print("quasi_idempotents=%d" % via_products.n)
    print("schemes_agree=%s" % ("yes" if agree else "no"))
    if args.format == "dot":
        rendered = hasse_dot(via_products)
    else:
        rendered = format_poset(via_products)
    _emit(rendered, args.out)
    if not agree:
        print("second scheme differs:", file=sys.stderr)
        sys.stderr.write(format_poset(via_links))
        return 1
    return 0


def cmd_export(args):
    P = _load_poset(args.input)
    if args.what == "hasse":
        text = hasse_dot(P)
    elif args.what == "pairs":
        text = pair_poset_dot(IncidenceAlgebra(P, args.convention).pair_poset())
    elif args.what == "ideal-lattice":
        A = IncidenceAlgebra(P, args.convention)
        text = ideal_lattice_dot(A, cap=args.cap)
    else:
        A = IncidenceAlgebra(P, args.convention)
        text = A.multiplication_table().to_json_text()
    _emit(text, args.out)
    return 0


def cmd_dims(args):
    P = _load_poset(args.input)
    R = build_rewrite_system(P, args.triples)
    dims = dimension_up_to(R, args.max_degree)
    print("degree dimension")
    for d, value in enumerate(dims, start=1):
        print("%d %d" % (d, value))
    return 0


def cmd_reduce(args):
    P = _load_poset(args.input)
    R = build_rewrite_system(P, args.triples)
    if not args.word.split():
        raise ParseError("--word names no element")
    word = [P.index(lbl) for lbl in args.word.split()]
    nf = reduce_word(R, word)
    if nf is None:
        print("0")
    else:
        print(" ".join(P.labels[i] for i in nf))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="posetalg",
        description="Incidence algebras of finite posets: ideals, recovery, "
        "rewriting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="one-line summary of a poset file")
    p.add_argument("--input", required=True, help="poset file, - for stdin")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("ideals", help="enumerate two-sided ideals with flags")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--cap", type=int, default=20, help="refuse above this many comparable pairs"
    )
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("check", help="run the invariant suite")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", choices=sorted(CORPORA))
    src.add_argument("--poset", help="poset file")
    src.add_argument("--table", help="multiplication table JSON")
    p.add_argument("--seed", type=int, default=1, help="base scramble seed")
    p.add_argument(
        "--cap", type=int, default=12, help="pair-poset size cap for enumeration"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("recover", help="recover a poset from a table JSON")
    p.add_argument("--input", required=True, help="table JSON, - for stdin")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.add_argument("--out", help="write the recovered poset here, - for stdout")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("export", help="render derived objects")
    p.add_argument(
        "what", choices=("hasse", "pairs", "ideal-lattice", "table"),
        help="hasse/pairs/ideal-lattice are DOT, table is JSON",
    )
    p.add_argument("--input", required=True)
    p.add_argument(
        "--convention", choices=("reflexive", "irreflexive"), default="reflexive"
    )
    p.add_argument("--cap", type=int, default=64, help="ideal-lattice node cap")
    p.add_argument("--out", help="output file, - for stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("dims", help="graded dimensions from the rewriting system")
    p.add_argument("--input", required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument(
        "--triples",
        choices=("allow_repeats", "distinct_only"),
        default="allow_repeats",
    )
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("reduce", help="normal form of a word of generators")
    p.add_argument("--input", required=True)
    p.add_argument("--word", required=True, help="space separated labels")
    p.add_argument(
        "--triples",
        choices=("allow_repeats", "distinct_only"),
        default="allow_repeats",
    )
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "dims" and not 1 <= args.max_degree <= MAX_PROBE_DEGREE:
        parser.error("--max-degree must be between 1 and %d" % MAX_PROBE_DEGREE)
    if getattr(args, "cap", 0) < 0:  # ideals, check and export
        parser.error("--cap must be 0 or more")
    try:
        return args.func(args)
    except (PosetAlgebraError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
