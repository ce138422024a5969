"""Command-line front end.

Subcommands: reach, lfsr, set, reduce, contains, bench. Exit codes are
part of the interface: 0 success (also for --help), 1 input, usage or
configuration problem, 2 internal soundness violation (the zonotope
backend lost an exact state, which is a bug), 3 key search failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from typing import Optional

from . import casestudies, zonotope
from .dsl import Binary, parse_system
from .errors import LogzonoError, ParseError, SearchFailed, UsageError
from .reach import DEFAULT_STATE_BUDGET, check_containment, reach as run_reach
from .gf2 import BitVec
from .zonotope import LogicalZonotope, contains, evaluate, reduce

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOUNDNESS = 2
EXIT_SEARCH = 3

def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(args, obj, text_lines, csv_rows=None, csv_header=None):
    """Render one result in the selected --out format; honor --golden."""
    if args.golden:
        with open(args.golden, "w") as fh:
            fh.write(_canonical_json(obj))
    if args.out == "json":
        print(_canonical_json(obj), end="")
    elif args.out == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        w.writerows(csv_rows)
        print(buf.getvalue(), end="")
    else:
        for line in text_lines:
            print(line)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_zonotope(path: str) -> LogicalZonotope:
    return LogicalZonotope.from_json_dict(_load_json(path))


# ---------------------------------------------------------------- reach

def _backend_list(name: str):
    table = {"zono": ["zonotope"], "exact": ["explicit"],
             "both": ["zonotope", "explicit"]}
    return table[name]


def cmd_reach(args) -> int:
    with open(args.system) as fh:
        sys_ = parse_system(fh.read())
    horizon = args.horizon if args.horizon is not None else sys_.horizon
    results = {b: run_reach(sys_, horizon, b, state_budget=args.state_budget)
               for b in _backend_list(args.backend)}

    obj = {b: r.to_json_dict() for b, r in results.items()}
    lines = []
    csv_rows = []
    for b, r in results.items():
        lines.append(f"[{b}] horizon {horizon}, "
                     f"total {r.total_time_s:.3f}s")
        for s in r.steps:
            lines.append(f"  k={s.k:<4d} size={s.size:<4d} "
                         f"joint={s.joint_count:<6d} time={s.time_s:.4f}s")
            csv_rows.append([s.k, b, f"{s.time_s:.6f}", s.size,
                             s.joint_count])

    code = EXIT_OK
    if args.backend == "both":
        rep = check_containment(results["zonotope"], results["explicit"])
        obj["containment"] = {"ok": rep.ok,
                              "violations": [list(v) for v in rep.violations],
                              "surplus": rep.surplus}
        lines.append(f"containment: {'ok' if rep.ok else 'VIOLATED'}, "
                     f"surplus per step {rep.surplus}")
        if not rep.ok:
            for v in rep.violations[:10]:
                lines.append(f"  lost state at k={v[0]}: {v[1]} ({v[2]})")
            code = EXIT_SOUNDNESS
    _emit(args, obj, lines, csv_rows,
          ["k", "backend", "time_s", "size", "joint_count"])
    return code


# ----------------------------------------------------------------- lfsr

def _spec_from_args(args) -> casestudies.LfsrSpec:
    if args.taps or args.output_taps:
        if not (args.taps and args.output_taps):
            raise UsageError("--taps and --output-taps go together")
        return casestudies.LfsrSpec(
            args.length,
            tuple(int(t) for t in args.taps.split(",")),
            tuple(int(t) for t in args.output_taps.split(",")))
    return casestudies.scaled_spec(args.length)


def _random_instance(spec, l_m, rng):
    key = tuple(rng.randint(0, 1) for _ in range(spec.length))
    msg = [rng.randint(0, 1) for _ in range(l_m)]
    return key, casestudies.make_instance(spec, key, msg)


def _search_once(spec, inst):
    t0 = time.perf_counter()
    key = casestudies.key_search(spec, inst)
    dt = time.perf_counter() - t0
    verified = casestudies.encrypt(spec, key, inst.message) == inst.cipher
    return key, verified, dt


def cmd_lfsr(args) -> int:
    spec = _spec_from_args(args)
    if args.instance:
        d = _load_json(args.instance)
        casestudies.check_json_object(d, "instance", ("spec", "message", "cipher"))
        for name in ("message", "cipher"):
            if not isinstance(d[name], list):
                raise ValueError(f"{name} must be a list of bits, got {d[name]!r}")
        spec = casestudies.LfsrSpec.from_json_dict(d["spec"])
        inst = casestudies.CipherInstance(tuple(d["message"]),
                                          tuple(d["cipher"]))
    else:
        l_m = args.message_len or 4 * spec.length
        _, inst = _random_instance(spec, l_m, random.Random(args.seed))
    if inst.l_m < spec.length:
        print(f"warning: message ({inst.l_m} bits) shorter than key "
              f"({spec.length} bits); instance may be under-determined",
              file=sys.stderr)

    key, verified, dt = _search_once(spec, inst)
    key_text = "".join(str(b) for b in key)
    obj = {"spec": spec.to_json_dict(), "key": key_text,
           "verified": verified, "time_s": round(dt, 6)}
    _emit(args, obj,
          [f"key {key_text}", f"verified {str(verified).lower()}",
           f"time {dt:.4f}s"],
          [[spec.length, f"{dt:.4f}", str(verified).lower()]],
          ["length", "time_s", "verified"])
    return EXIT_OK


# ------------------------------------------------- set / reduce / contains

def _zonotope_payload(z: LogicalZonotope, with_points: bool,
                      cap: Optional[int]) -> dict:
    obj = z.to_json_dict()
    if with_points:
        obj["points"] = [p.to_text() for p in evaluate(z, cap)]
    return obj


def cmd_set(args) -> int:
    a = _load_zonotope(args.a)
    mink = getattr(zonotope, "mink_" + args.op)
    if args.op == "not":
        if args.b is not None:
            raise UsageError("'not' takes a single zonotope")
        result = mink(a)
    else:
        if args.b is None:
            raise UsageError(f"'{args.op}' needs two zonotopes")
        result = mink(a, _load_zonotope(args.b))
    obj = _zonotope_payload(result, args.evaluate, args.gamma_cap)
    lines = [_canonical_json(obj).rstrip("\n")]
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_reduce(args) -> int:
    z = _load_zonotope(args.zonotope)
    r = reduce(z)
    obj = _zonotope_payload(r, args.evaluate, args.gamma_cap)
    obj["gamma_before"] = z.gamma
    obj["gamma_after"] = r.gamma
    _emit(args, obj, [_canonical_json(obj).rstrip("\n")])
    return EXIT_OK


def cmd_contains(args) -> int:
    z = _load_zonotope(args.zonotope)
    x = BitVec.from_text(args.point)
    verdict = contains(z, x)
    obj = {"zonotope": z.to_json_dict(), "point": args.point,
           "contains": verdict}
    _emit(args, obj, ["true" if verdict else "false"])
    return EXIT_OK


# ---------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    if args.target == "intersection":
        sys_ = casestudies.intersection_system()
        rows = []
        for n in (int(x) for x in args.horizons.split(",")):
            for b in _backend_list(args.backend):
                r = run_reach(sys_, n, b)
                last = r.steps[-1]
                rows.append([n, b, f"{r.total_time_s:.4f}", last.size,
                             last.joint_count])
        obj = {"rows": [{"N": r[0], "backend": r[1], "time_s": float(r[2]),
                         "size": r[3], "joint_count": r[4]} for r in rows]}
        _emit(args, obj,
              [f"N={r[0]:<5d} {r[1]:<9s} {r[2]}s size={r[3]} "
               f"joint={r[4]}" for r in rows],
              rows, ["N", "backend", "time_s", "size", "joint_count"])
        return EXIT_OK

    # lfsr: zonotope search vs exhaustive enumeration; exhaustive timing
    # is measured up to 20 bits and extrapolated from per-key cost above
    rng = random.Random(args.seed)
    rows = []
    for length in (int(x) for x in args.lengths.split(",")):
        spec = casestudies.scaled_spec(length)
        key, inst = _random_instance(spec, 4 * length, rng)
        _, _, dt = _search_once(spec, inst)
        t0 = time.perf_counter()
        if length <= 20:
            mode = "measured"
            for cand in range(1 << length):
                bits = [(cand >> (length - 1 - i)) & 1
                        for i in range(length)]
                if casestudies.encrypt(spec, bits, inst.message) == inst.cipher:
                    break
            exhaustive = time.perf_counter() - t0
        else:
            mode = "extrapolated"
            samples = 64
            for cand in range(samples):
                bits = [(cand >> (length - 1 - i)) & 1
                        for i in range(length)]
                casestudies.encrypt(spec, bits, inst.message)
            per_key = (time.perf_counter() - t0) / samples
            exhaustive = per_key * (1 << length)
        rows.append([length, f"{dt:.4f}", f"{exhaustive:.4f}", mode])
    obj = {"rows": [{"length": r[0], "search_time_s": float(r[1]),
                     "exhaustive_time_s": float(r[2]), "exhaustive": r[3]}
                    for r in rows]}
    _emit(args, obj,
          [f"l_k={r[0]:<4d} search {r[1]}s  exhaustive {r[2]}s ({r[3]})"
           for r in rows],
          rows, ["length", "search_time_s", "exhaustive_time_s",
                 "exhaustive_mode"])
    return EXIT_OK


# --------------------------------------------------------------- parser

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as UsageError: argparse's own exit code 2 is
    EXIT_SOUNDNESS here. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_common(p, default_out="text", outs=("json", "csv", "text")):
    """--out, offered only in the formats the command can print, and --golden."""
    p.add_argument("--out", choices=outs, default=default_out)
    p.add_argument("--golden", metavar="FILE",
                   help="also write canonical JSON to FILE")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_gamma_cap(p):
    p.add_argument("--gamma-cap", type=_positive_int, default=None,
                   help="override the point-enumeration cap")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="logzono",
        description="logical-zonotope sets and Boolean-system reachability")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("reach", help="run reachability on a system file")
    p.add_argument("system")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--backend", choices=["zono", "exact", "both"],
                   default="zono")
    p.add_argument("--state-budget", type=_positive_int,
                   default=DEFAULT_STATE_BUDGET)
    _add_common(p)

    p = sub.add_parser("lfsr", help="stream-cipher key search")
    p.add_argument("--length", type=int, default=60)
    p.add_argument("--taps", help="feedback taps, comma separated")
    p.add_argument("--output-taps", help="output taps, comma separated")
    p.add_argument("--message-len", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instance", help="JSON file with spec/message/cipher")
    _add_common(p)

    p = sub.add_parser("set", help="Minkowski operation on zonotope files")
    p.add_argument("op", choices=sorted(node.op for node in Binary.__subclasses__())
                   + ["not"])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("--evaluate", action="store_true",
                   help="also list the explicit points")
    _add_common(p, default_out="json", outs=("json", "text"))
    _add_gamma_cap(p)

    p = sub.add_parser("reduce", help="drop redundant generators")
    p.add_argument("zonotope")
    p.add_argument("--evaluate", action="store_true")
    _add_common(p, default_out="json", outs=("json", "text"))
    _add_gamma_cap(p)

    p = sub.add_parser("contains", help="membership test for a bitstring")
    p.add_argument("zonotope")
    p.add_argument("point")
    _add_common(p, outs=("json", "text"))

    p = sub.add_parser("bench", help="benchmark tables")
    p.add_argument("target", choices=["intersection", "lfsr"])
    p.add_argument("--horizons", default="10,50,100,1000")
    p.add_argument("--backend", choices=["zono", "exact", "both"],
                   default="both")
    p.add_argument("--lengths", default="30,60")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, default_out="csv")
    return ap


_HANDLERS = {
    "reach": cmd_reach, "lfsr": cmd_lfsr, "set": cmd_set,
    "reduce": cmd_reduce, "contains": cmd_contains, "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.cmd](args)
    except SearchFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEARCH
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (LogzonoError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError as e:
        # a JSON file nested past the recursion limit, for json.load; the
        # DSL parser, the printer and both reach backends have no depth limit
        print(f"error: input nested too deeply: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
