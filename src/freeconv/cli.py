"""Command-line front end: measure-spec I/O and one subcommand per operation.

Exit codes: 0 success, 1 computation error or negative verdict,
2 usage/validation error (bad flags, malformed or non-normalized specs).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import DEFAULT_SEED, SUITES, catalog, ncpart
from .catalog import LAWS, MeasureSpec
from .ncpart import SeqN

# Each handler imports what it needs beyond catalog and ncpart, so a
# subcommand loads only the modules it uses, and those on moment sequences
# never load numpy.

GRID_ENV = "FREECONV_GRID_DEFAULT"

SIZE_CAP = 100_000  # grid n, --t count, spec lists; checked before allocating

# --order above the largest kernel cap is a usage error before any spec is read
ORDER_CAP = max(catalog.MOMENT_CAP_CLOSED, ncpart.CONVERSION_CAP, ncpart.PRODUCT_CAP)

# Catalan(NC_COUNT_CAP) has 4209 digits, under Python's 4300-digit limit on
# int-to-str conversion, so nc --count prints every value it accepts
NC_COUNT_CAP = 7000

_FRACTION_RE = re.compile(r"^-?\d+/\d+$")


class SpecError(ValueError):
    """Input file or schema violation; maps to exit code 2."""


# ---------------------------------------------------------------------------
# number and JSON plumbing


def _num_to_json(v):
    if isinstance(v, bool):
        raise SpecError(f"booleans are not numbers: {v}")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def _num_from_json(v, where: str):
    if isinstance(v, bool):
        raise SpecError(f"{where}: expected a number, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if not math.isfinite(v):
            raise SpecError(f"{where}: number must be finite, got {v}")
        return v
    if isinstance(v, str):
        if _FRACTION_RE.match(v):
            return Fraction(v)
        raise SpecError(f"{where}: strings must be exact fractions 'p/q', got {v!r}")
    raise SpecError(f"{where}: expected a number, got {type(v).__name__}")


def _capped(obj, where: str):
    if len(obj) > SIZE_CAP:
        raise SpecError(f"{where}: at most {SIZE_CAP} entries, got {len(obj)}")


def _num_list(obj, where: str):
    if not isinstance(obj, list):
        raise SpecError(f"{where}: expected a list")
    _capped(obj, where)
    return [_num_from_json(v, f"{where}[{i}]") for i, v in enumerate(obj)]


def _pair_list(obj, where: str):
    if not isinstance(obj, list):
        raise SpecError(f"{where}: expected a list of [location, weight] pairs")
    _capped(obj, where)
    pairs = []
    for i, item in enumerate(obj):
        if not isinstance(item, list) or len(item) != 2:
            raise SpecError(f"{where}[{i}]: expected [location, weight]")
        loc = _num_from_json(item[0], f"{where}[{i}][0]")
        w = _num_from_json(item[1], f"{where}[{i}][1]")
        pairs.append((loc, w))
    return pairs


# ---------------------------------------------------------------------------
# measure-spec files


def serialize_measure_spec(mu: MeasureSpec) -> dict:
    if mu.kind == "atomic":
        return {
            "type": "atomic",
            "atoms": [[_num_to_json(l), _num_to_json(w)] for l, w in mu.atoms],
        }
    if mu.kind == "grid":
        return {
            "type": "grid",
            "xs": [float(x) for x in mu.xs],
            "densities": [float(d) for d in mu.densities],
            "atoms": [[_num_to_json(l), _num_to_json(w)] for l, w in mu.atoms],
        }
    if mu.kind == "law":
        return {
            "type": "law",
            "name": mu.law,
            "params": [_num_to_json(p) for p in mu.params],
            "scale": _num_to_json(mu.scale),
            "offset": _num_to_json(mu.offset),
        }
    if mu.kind in ("moments", "free_cumulants"):
        return {"type": mu.kind, "values": [_num_to_json(v) for v in mu.seq.values]}
    raise SpecError(f"unknown representation {mu.kind!r}")


def parse_measure_spec_obj(obj) -> MeasureSpec:
    if not isinstance(obj, dict):
        raise SpecError("measure spec must be a JSON object")
    kind = obj.get("type")
    kinds = ("atomic", "grid", "law", "moments", "free_cumulants")
    if kind not in kinds:
        raise SpecError(f"type: expected one of {kinds}, got {kind!r}")
    try:
        if kind == "atomic":
            atoms = _pair_list(obj.get("atoms"), "atoms")
            total = sum(w for _, w in atoms)
            if abs(total - 1) > 1e-6:
                raise SpecError(f"atoms: weights sum to {total}, expected 1")
            if total != 1:
                atoms = [(loc, w / total) for loc, w in atoms]
            return MeasureSpec.atomic(atoms)
        if kind == "grid":
            xs = _num_list(obj.get("xs"), "xs")
            densities = _num_list(obj.get("densities"), "densities")
            atoms = _pair_list(obj.get("atoms", []), "atoms")
            return MeasureSpec.grid(xs, densities, atoms)
        if kind == "law":
            name = obj.get("name")
            if not isinstance(name, str):
                raise SpecError("name: expected a law name string")
            params = _num_list(obj.get("params", []), "params")
            scale = _num_from_json(obj.get("scale", 1), "scale")
            offset = _num_from_json(obj.get("offset", 0), "offset")
            return MeasureSpec.from_law(name, params, scale=scale, offset=offset)
        values = _num_list(obj.get("values"), "values")
        if kind == "moments":
            return MeasureSpec.from_moments(values)
        return MeasureSpec.from_free_cumulants(values)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _load_json(source: str):
    """Parse a JSON file path, or an inline JSON string starting with '{'."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {source}: {exc}") from exc


def parse_measure_spec(source: str) -> MeasureSpec:
    """Load a measure spec from a JSON file path or an inline JSON string."""
    return parse_measure_spec_obj(_load_json(source))


# ---------------------------------------------------------------------------
# triplet files


def serialize_triplet(t) -> dict:
    """JSON object of an idclass.FreeTriplet."""
    levy = {
        "atoms": [[_num_to_json(l), _num_to_json(m)] for l, m in t.levy.atoms],
        "grid": None,
    }
    if t.levy.xs:
        levy["grid"] = {
            "xs": [float(x) for x in t.levy.xs],
            "densities": [float(d) for d in t.levy.densities],
        }
    return {"eta": _num_to_json(t.eta), "a": _num_to_json(t.a), "levy": levy}


def parse_triplet(source: str):
    """An idclass.FreeTriplet from a JSON file path or inline JSON string."""
    from . import idclass

    obj = _load_json(source)
    if not isinstance(obj, dict):
        raise SpecError("triplet must be a JSON object")
    if "eta" not in obj or "a" not in obj:
        raise SpecError("triplet needs fields 'eta' and 'a'")
    eta = _num_from_json(obj["eta"], "eta")
    a = _num_from_json(obj["a"], "a")
    levy_obj = obj.get("levy") or {}
    if not isinstance(levy_obj, dict):
        raise SpecError("levy: expected an object")
    atoms = _pair_list(levy_obj.get("atoms", []), "levy.atoms")
    xs, densities = (), ()
    grid = levy_obj.get("grid")
    if grid is not None:
        if not isinstance(grid, dict):
            raise SpecError("levy.grid: expected an object")
        xs = _num_list(grid.get("xs"), "levy.grid.xs")
        densities = _num_list(grid.get("densities"), "levy.grid.densities")
    try:
        levy = idclass.LevyMeasure(atoms=tuple(atoms), xs=tuple(xs),
                                   densities=tuple(densities))
        return idclass.FreeTriplet(eta, a, levy)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v) -> str:
    return f"{float(v):.12g}"


def _check_finite(values, what: str):
    """Refuse output with a NaN or an infinity; exact values are always finite."""
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{what} has a non-finite value ({v}); nothing printed")


def _print_json(obj):
    # a NaN or an infinity raises ValueError before anything is printed
    print(json.dumps(obj, indent=2, allow_nan=False))


def _print_spec(mu: MeasureSpec):
    """Print a spec as JSON, or refuse it with freeconv's own message if a
    value is not finite."""
    atoms = [v for atom in mu.atoms for v in atom]
    seq = mu.seq.values if mu.seq is not None else ()
    values = [*mu.params, mu.scale, mu.offset, *mu.xs, *mu.densities, *atoms, *seq]
    _check_finite(values, f"{mu.kind} spec")
    _print_json(serialize_measure_spec(mu))


def _emit_seq(seq: SeqN, out: str):
    _check_finite(seq.values, seq.kind)
    if out == "json":
        _print_json({"kind": seq.kind, "values": [_num_to_json(v) for v in seq.values]})
    elif out == "csv":
        print("n,value")
        for n, v in enumerate(seq.values, 1):
            print(f"{n},{_fmt(v)}")
    else:
        width = len(str(seq.order))
        for n, v in enumerate(seq.values, 1):
            print(f"{n:>{width}}  {_fmt(v)}")


def _emit_density(xs, density, atoms, out: str):
    _check_finite([*xs, *density, *(v for atom in atoms for v in atom)], "density output")
    if out == "json":
        _print_json(
            {
                "xs": [float(x) for x in xs],
                "density": [float(d) for d in density],
                "atoms": [[float(l), float(w)] for l, w in atoms],
            }
        )
        return
    print("x,density")
    for x, d in zip(xs, density):
        print(f"{_fmt(x)},{_fmt(d)}")
    for loc, w in atoms:
        print(f"# atom,{_fmt(loc)},{_fmt(w)}", file=sys.stderr)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SpecError(f"grid must be lo:hi:n, got {text!r}") from exc
    if not (lo < hi and math.isfinite(hi - lo)) or not 2 <= n <= SIZE_CAP:
        raise SpecError(
            f"grid needs lo < hi and 2 <= n <= {SIZE_CAP}, with finite ends, got {text!r}"
        )
    import numpy as np

    return np.linspace(lo, hi, n)


def _default_grid(flag_value):
    if flag_value:
        return _parse_grid(flag_value)
    env = os.environ.get(GRID_ENV)
    if env:
        return _parse_grid(env)
    return None


def _parse_times(text: str):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecError(f"time range must be lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError as exc:
            raise SpecError(f"time range must be lo:hi:step, got {text!r}") from exc
        if step <= 0 or not lo <= hi:
            raise SpecError(f"time range needs lo <= hi and step > 0, got {text!r}")
        span = (hi - lo) / step  # round(span) + 1 values
        if not math.isfinite(span) or round(span) >= SIZE_CAP:
            raise SpecError(f"time range gives over {SIZE_CAP} values, got {text!r}")
        ts = [lo + k * step for k in range(round(span) + 1)]
        ts = [t for t in ts if t <= hi + 1e-12]
    else:
        try:
            ts = [float(p) for p in text.split(",") if p]
        except ValueError as exc:
            raise SpecError(f"times must be numbers, got {text!r}") from exc
        if not all(math.isfinite(t) for t in ts):
            raise SpecError(f"times must be finite, got {text!r}")
        if not 1 <= len(ts) <= SIZE_CAP:
            raise SpecError(f"scan needs 1 to {SIZE_CAP} times, got {len(ts)}")
    if not all(t > 0 for t in ts):
        raise SpecError(f"scan times must be positive, got {text!r}")
    return ts


def _int_arg(lo: int, hi: float = math.inf, cap: float = math.inf):
    """argparse type for an integer size in [lo, hi] and at most cap; others
    exit 2. A value below lo names the range, one above cap names cap."""

    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            bound = f"at least {lo}" if hi == math.inf else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        if value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value

    return integer


_order = _int_arg(1, cap=ORDER_CAP)


def _positive_float(text: str) -> float:
    """argparse type for a finite positive float; others exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _parse_number(text: str, where: str):
    """A typed int, 'p/q' fraction or float, under the rules of a JSON number
    (_num_from_json): a non-finite value is a usage error."""
    text = text.strip()
    if _FRACTION_RE.match(text):
        return Fraction(text)
    for parse in (int, float):
        try:
            value = parse(text)
        except ValueError:
            continue
        return _num_from_json(value, where)
    raise SpecError(f"{where}: expected a number, got {text!r}")


def _parse_params(text: str):
    if not text:
        return ()
    return tuple(_parse_number(p, "params") for p in text.split(","))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_law(args) -> int:
    if args.name is None:
        for name in sorted(LAWS):
            print(f"{name}  params: {','.join(LAWS[name].param_names) or '(none)'}")
        return 0
    try:
        mu = MeasureSpec.from_law(
            args.name,
            _parse_params(args.params),
            scale=_parse_number(args.scale, "scale"),
            offset=_parse_number(args.offset, "offset"),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    _print_spec(mu)
    return 0


def _cmd_moments(args) -> int:
    mu = parse_measure_spec(args.spec)
    _emit_seq(catalog.moments_of(mu, args.order), args.out)
    return 0


def _cmd_cumulants(args) -> int:
    mu = parse_measure_spec(args.spec)
    if args.kind == "free":
        seq = catalog.free_cumulants_of(mu, args.order)
    else:
        seq = catalog.boolean_cumulants_of(mu, args.order)
    _emit_seq(seq, args.out)
    return 0


def _cmd_convolve(args) -> int:
    from . import conv

    mu = parse_measure_spec(args.a)
    nu = parse_measure_spec(args.b)
    if args.density:
        if args.op != "add":
            raise SpecError("--density is available for --op add only")
        xs = _default_grid(args.grid)
        if xs is None:
            raise SpecError(
                f"--density needs --grid lo:hi:n or the {GRID_ENV} variable"
            )
        result = conv.free_add_density(mu, nu, xs)
        for msg in result.warnings:
            print(f"warning: {msg}", file=sys.stderr)
        _emit_density(result.xs, result.density, result.atoms, args.out or "csv")
        return 0
    if args.op == "add":
        out = conv.free_add(mu, nu, args.order)
    elif args.op == "boolean":
        out = conv.boolean_add(mu, nu, args.order)
    else:
        out = conv.free_mult(mu, nu, args.order, method=args.method)
    _print_spec(out)
    return 0


def _cmd_power(args) -> int:
    from . import conv

    mu = parse_measure_spec(args.spec)
    t = _parse_number(args.t, "--t")
    if args.conv == "boolean":
        out = conv.boolean_power(mu, t, args.order)
    elif args.fid:
        out = conv.free_power_fid(mu, t, args.order)
    else:
        out = conv.free_power(mu, t, args.order)
    _print_spec(out)
    return 0


def _cmd_density(args) -> int:
    import numpy as np

    mu = parse_measure_spec(args.spec)
    xs = _default_grid(args.grid)
    if xs is None and mu.kind == "law":
        window = catalog.support_of(mu)
        if window is None or not all(map(math.isfinite, window)):
            raise SpecError(
                f"{mu.law} has no bounded default window; pass --grid "
                f"lo:hi:n or set {GRID_ENV}"
            )
        xs = np.linspace(*window, 401)
    elif xs is None and mu.kind == "grid":
        xs = np.asarray(mu.xs, dtype=float)
    _emit_density(xs, catalog.density_of(mu, xs), catalog.atoms_of(mu), args.out)
    return 0


def _cmd_commutator(args) -> int:
    from . import conv

    mu = parse_measure_spec(args.a)
    nu = parse_measure_spec(args.b)
    out = conv.commutator(mu, nu, args.order)
    _emit_seq(out.seq, args.out)
    return 0


def _cmd_square(args) -> int:
    mu = parse_measure_spec(args.spec)
    _print_spec(catalog.push_square(mu, args.order))
    return 0


def _cmd_factor_main3(args) -> int:
    from . import idclass

    mu = parse_measure_spec(args.spec)
    kappa = catalog.free_cumulants_of(mu, args.order)
    sigma = idclass.main3_factor(kappa)
    _emit_seq(sigma, args.out)
    return 0


def _cmd_check(args) -> int:
    from . import idclass

    if args.regular:
        triplet = parse_triplet(args.regular)
        try:
            form = idclass.to_regular_form(triplet)
        except ValueError as exc:
            _print_json({"representable": False, "free_regular": False,
                         "reason": str(exc)})
            return 1
        _print_json(
            {
                "representable": True,
                "free_regular": form.is_free_regular,
                "drift": _num_to_json(form.drift),
            }
        )
        return 0 if form.is_free_regular else 1
    mu = parse_measure_spec(args.kurtosis)
    res = idclass.kurtosis_check(mu)
    _print_json(
        {
            "statistic": None if res.value is None else _num_to_json(res.value),
            "verdict": res.verdict,
        }
    )
    return 0 if res.passed else 1


def _cmd_scan(args) -> int:
    from . import idclass

    mu = parse_measure_spec(args.spec)
    ts = _parse_times(args.t)
    result = idclass.positivity_scan(
        idclass.RModel.of_spec(mu, args.order), ts, edge_tol=args.edge_tol
    )
    if args.out == "json":
        _print_json(
            {
                "points": [
                    {
                        "t": p.t,
                        "left_edge": p.left_edge,
                        "atoms": list(p.atoms),
                        "converged": p.converged,
                    }
                    for p in result.points
                ],
                "regular_evidence": result.regular_evidence,
            }
        )
        return 0
    _check_finite(
        [v for p in result.points for v in (p.left_edge, *p.atoms) if v is not None],
        "scan output",
    )
    print("t,left_edge,atoms,converged")
    for p in result.points:
        edge = "" if p.left_edge is None else _fmt(p.left_edge)
        atoms = ";".join(_fmt(a) for a in p.atoms)
        print(f"{_fmt(p.t)},{edge},{atoms},{p.converged}")
    print(f"regular evidence: {'yes' if result.regular_evidence else 'no'}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    report = verify.run_verify(args.suite, seed=args.seed)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_nc(args) -> int:
    if args.list:
        if args.count > ncpart.ENUMERATION_CAP:
            raise SpecError(
                f"--list enumerates NC(N) for N <= {ncpart.ENUMERATION_CAP}, "
                f"got {args.count}"
            )
        for part in ncpart.enumerate_nc(args.count):
            print(part)
        return 0
    print(ncpart.catalan(args.count))
    return 0


def _cmd_transform(args) -> int:
    from . import transforms

    mu = parse_measure_spec(args.spec)
    parts = args.at.split(",")
    if len(parts) != 2:
        raise SpecError(f"--at must be re,im, got {args.at!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise SpecError(f"--at must be re,im, got {args.at!r}") from exc
    if not cmath.isfinite(z):
        raise SpecError(f"--at must be finite, got {args.at!r}")
    if args.which != "S" and z.imag == 0:
        raise SpecError(f"transform {args.which} needs a point off the real axis")
    fn = {"G": transforms.cauchy, "F": transforms.f_transform,
          "K": transforms.boolean_k, "S": transforms.s_numeric}[args.which]
    value = complex(fn(mu, z))
    _check_finite([value.real, value.imag], f"transform {args.which}")
    print(f"{value.real:.12g},{value.imag:.12g}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="free-probability convolutions, transforms, and "
        "regularity checks on measure specs",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def spec_arg(p):
        p.add_argument("spec", help="measure-spec JSON file (or inline JSON)")

    def out_arg(p, choices=("table", "json", "csv"), default="table"):
        p.add_argument("--out", choices=choices, default=default)

    p = sub.add_parser("law", help="list catalog laws or emit one as a spec")
    p.add_argument("name", nargs="?", help="law name; omit to list all")
    p.add_argument("--params", default="", help="comma-separated parameters")
    p.add_argument("--scale", default="1")
    p.add_argument("--offset", default="0")
    p.set_defaults(handler=_cmd_law)

    p = sub.add_parser("moments", help="moment sequence of a measure")
    spec_arg(p)
    p.add_argument("--order", type=_order, default=8)
    out_arg(p)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("cumulants", help="free or boolean cumulants")
    spec_arg(p)
    p.add_argument("--order", type=_order, default=8)
    p.add_argument("--kind", choices=("free", "boolean"), default="free")
    out_arg(p)
    p.set_defaults(handler=_cmd_cumulants)

    p = sub.add_parser("convolve", help="free/boolean convolution of two specs")
    p.add_argument("--op", choices=("add", "mult", "boolean"), required=True)
    p.add_argument("--a", required=True, help="first measure-spec file")
    p.add_argument("--b", required=True, help="second measure-spec file")
    p.add_argument("--order", type=_order, default=8)
    p.add_argument("--method", choices=("both", "dp", "series"), default="both",
                   help="route for --op mult")
    p.add_argument("--density", action="store_true",
                   help="emit the density of the additive convolution")
    p.add_argument("--grid", help=f"lo:hi:n (default from {GRID_ENV})")
    p.add_argument("--out", choices=("json", "csv"), default=None)
    p.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("power", help="convolution power of a spec")
    spec_arg(p)
    p.add_argument("--t", required=True, help="exponent (number or p/q)")
    p.add_argument("--order", type=_order, default=8)
    p.add_argument("--conv", choices=("free", "boolean"), default="free")
    p.add_argument("--fid", action="store_true",
                   help="allow 0 < t < 1 (infinitely divisible input)")
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("density", help="density of a law or grid spec")
    spec_arg(p)
    p.add_argument("--grid", help=f"lo:hi:n (default from {GRID_ENV} or support)")
    out_arg(p, choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("commutator", help="free cumulants of the commutator")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--order", type=_order, default=8)
    out_arg(p, default="json")
    p.set_defaults(handler=_cmd_commutator)

    p = sub.add_parser("square", help="pushforward of a spec by x -> x^2")
    spec_arg(p)
    p.add_argument("--order", type=_order, default=8)
    p.set_defaults(handler=_cmd_square)

    p = sub.add_parser(
        "factor-main3",
        help="factor sigma of a symmetric spec: kappa_n(sigma) = kappa_2n(mu)",
    )
    spec_arg(p)
    p.add_argument("--order", type=_order, default=16)
    out_arg(p, default="json")
    p.set_defaults(handler=_cmd_factor_main3)

    p = sub.add_parser("check", help="regularity or kurtosis verdict")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--regular", metavar="TRIPLET",
                       help="triplet JSON file; exit 0 iff free regular")
    group.add_argument("--kurtosis", metavar="SPEC",
                       help="measure spec; exit 0 unless the statistic is negative")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("scan", help="left support edges of convolution powers",
                       description="Models a catalog law by its own R-transform, another "
                       "spec only by an exact semicircular or single-jump cumulant match; "
                       "any other spec exits 1.")
    spec_arg(p)
    p.add_argument("--t", required=True, help="lo:hi:step or comma list")
    p.add_argument("--order", type=_order, default=8,
                   help="free cumulants matched; affects only specs that are not catalog laws")
    p.add_argument("--edge-tol", type=_positive_float, default=1e-3)
    p.add_argument("--jobs", type=int, default=1, help="ignored; runs serially")
    out_arg(p, choices=("table", "json"))
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("verify", help="run the built-in identity checks")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1, help="ignored; runs serially")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("nc", help="non-crossing partition counts")
    p.add_argument("--count", type=_int_arg(0, NC_COUNT_CAP), required=True, metavar="N")
    p.add_argument("--list", action="store_true", help="enumerate NC(N)")
    p.set_defaults(handler=_cmd_nc)

    p = sub.add_parser("transform", help="evaluate G, F, K, or S at a point")
    spec_arg(p)
    p.add_argument("--which", choices=("G", "F", "K", "S"), required=True)
    p.add_argument("--at", required=True, metavar="RE,IM")
    p.set_defaults(handler=_cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
