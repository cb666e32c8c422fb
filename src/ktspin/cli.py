"""Command-line interface.

Commands: info, energy, series, correlate, clusters, verify.  Results go
to stdout (text lines by default, one JSON object with --json); warnings
go to stderr so pipelines stay parseable.  Exit codes: 0 success, 2
validation or input error (a --precision below what a double can carry
included), 3 when --strict is set and the estimate withholds its bound
(the one ``warning:`` line on stderr names why), 1 when verify finds a
failing cross-check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import clusters as clusters_mod
from .certificate import choose_correlator_order, choose_order, correlator_threshold
from .energy import energy_estimate, energy_series, radius_estimate, series_from_state
from .errors import KtspinError, NonFiniteStrength, ParseError
from .kernel import matrix_element
from .model import (
    EdgeTerm,
    SpinModel,
    TwoQubitOperator,
    Vertex,
    load_model,
    matrix_from_json,
)
from .response import CorrelatorQuery, correlator
from .setalg import dump_coefficients
from .solver import solve


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        print(f"{key} = {value}")


def _require_finite(name, value):
    if not math.isfinite(value):
        raise NonFiniteStrength(f"--{name} must be finite, got {value}")
    return value


def _pick_order(args, least, choose, *inputs):
    """``--order``, at least ``least``, or the order ``choose(*inputs, precision)`` gives ``--precision``."""
    if args.order is None:
        return choose(*inputs, args.precision)
    if args.order < least:
        raise KtspinError(f"--order must be >= {least}, got {args.order}")
    return args.order


def _certified(estimate, *inputs):
    """``estimate(*inputs)``, each warning it raises printed to stderr as a ``warning:`` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = estimate(*inputs)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return result


def _report(payload, args, bound):
    """Emit ``payload``; exit 3 when ``--strict`` is set and no bound is attached."""
    _emit(payload, args.json)
    return 3 if args.strict and bound is None else 0


def _load_observable(text):
    """Observable from a Pauli expression or a JSON file path.

    A file holds ``{"pauli": expression}``, ``{"matrix": rows}`` or the
    rows alone, four rows of four [re, im] pairs; anything else, a
    document with both keys included, raises ParseError.
    """
    if not os.path.isfile(text):
        return TwoQubitOperator.from_pauli(text)
    with open(text) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        if "pauli" in doc and "matrix" in doc:
            raise ParseError(f"observable file {text} needs exactly one of 'matrix' or 'pauli'")
        if "pauli" in doc:
            return TwoQubitOperator.from_pauli(doc["pauli"])
        doc = doc.get("matrix")
    try:
        rows = matrix_from_json(doc)
    except ValueError:
        raise ParseError(
            f"observable file {text} needs 'pauli' or a 4x4 'matrix' of [re, im] pairs"
        ) from None
    return TwoQubitOperator(rows)


def _coeff_pairs(coefficients):
    out = []
    for c in coefficients:
        z = complex(c)
        out.append([_finite_or_none(z.real), _finite_or_none(z.imag)])
    return out


def _cmd_info(args):
    model = load_model(args.model)
    payload = {
        "n": model.n,
        "Delta": model.Delta,
        "J": model.J,
        "d": model.d,
        "eps0": _finite_or_none(model.eps0),
        "eps0_star": _finite_or_none(model.eps0_star),
        "hermitian": model.hermitian,
    }
    _emit(payload, args.json)
    return 0


def _run_series(args, model):
    order = _pick_order(args, 1, choose_order, model)
    state = solve(model, max(order - 1, 1), args.threshold)
    series = series_from_state(state, order)
    if args.dump_coefficients:
        with open(args.dump_coefficients, "w") as fh:
            dump_coefficients(state.table, fh)
    return order, series


def _cmd_energy(args):
    model = load_model(args.model)
    eps = _require_finite("epsilon", args.epsilon)
    order, series = _run_series(args, model)
    value, bound = _certified(energy_estimate, series, eps)
    payload = {
        "E": _finite_or_none(value.real),
        "E_im": _finite_or_none(value.imag),
        "bound": _finite_or_none(bound),
        "p": order,
        "eps0": _finite_or_none(series.eps0),
        "coefficients": _coeff_pairs(series.coefficients),
        "radius_estimate": _finite_or_none(radius_estimate(series)),
    }
    return _report(payload, args, bound)


def _cmd_series(args):
    model = load_model(args.model)
    order, series = _run_series(args, model)
    payload = {
        "p": order,
        "eps0": _finite_or_none(series.eps0),
        "coefficients": _coeff_pairs(series.coefficients),
        "chi": [_finite_or_none(x) for x in series.norms],
        "radius_estimate": _finite_or_none(radius_estimate(series)),
    }
    _emit(payload, args.json)
    return 0


def _cmd_correlate(args):
    model = load_model(args.model)
    eps = _require_finite("epsilon", args.epsilon)
    obs = _load_observable(args.observable)
    order = _pick_order(args, 0, choose_correlator_order, model, obs)
    query = CorrelatorQuery(s=args.s, t=args.t, observable=obs, epsilon=eps, order=order)
    result = _certified(correlator, model, query)
    payload = {
        "K": _finite_or_none(result.value.real),
        "bound": _finite_or_none(result.bound),
        "p": result.order,
        "regime": result.regime,
    }
    return _report(payload, args, result.bound)


def _cmd_clusters(args):
    model = load_model(args.model)
    graph = clusters_mod.AdjacencyGraph.from_model(model)
    found = clusters_mod.enumerate_clusters(graph, args.vertex, args.size)
    payload = {
        "vertex": args.vertex,
        "size": args.size,
        "count": len(found),
        "bound": clusters_mod.cluster_count_bound(graph, args.size),
    }
    if args.list:
        payload["clusters"] = [list(members) for members in found]
    _emit(payload, args.json)
    return 0


def _random_verify_model(rng, n, ring):
    vertices = [Vertex(id=i, delta=float(0.5 + rng.random())) for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    if ring and n > 2:
        pairs.append((n - 1, 0))
    edges = []
    for u, v in pairs:
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm = (raw + raw.conj().T) / 2.0
        herm /= np.linalg.svd(herm, compute_uv=False)[0]
        edges.append(EdgeTerm(u=u, v=v, op=TwoQubitOperator(herm)))
    return SpinModel(vertices=vertices, edges=edges)


def _verify_checks(max_qubits, seeds):
    # only verify reads the dense oracle, so no other command compiles it
    from . import oracle

    for seed in range(seeds):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(3, max_qubits + 1))
        model = _random_verify_model(rng, n, ring=bool(seed % 2))
        eps0 = model.eps0

        # kernel vs dense commutator evaluation
        worst = 0.0
        small = model if n <= 6 else _random_verify_model(rng, 5, ring=False)
        for _ in range(60):
            edge = small.edges[int(rng.integers(len(small.edges)))]
            k = int(rng.integers(0, 5))
            sets = []
            for _j in range(k):
                size = int(rng.integers(1, 4))
                sets.append(tuple(sorted(rng.choice(small.n, size=size, replace=False))))
            size = int(rng.integers(1, 4))
            target = tuple(sorted(rng.choice(small.n, size=size, replace=False)))
            fast = matrix_element(target, sets, edge)
            slow = oracle.dense_matrix_element(target, sets, edge, small.n)
            worst = max(worst, abs(fast - slow))
        yield (f"kernel-vs-dense seed {seed}", worst <= 1e-12, f"max dev {worst:.2e}")

        # truncated series vs exact energy at the threshold strength
        p = 4
        series = energy_series(model, p)
        value, bound = energy_estimate(series, eps0)
        exact = oracle.ground(model, eps0).energy
        err = abs(value - exact)
        yield (
            f"series-vs-exact seed {seed}",
            err <= bound,
            f"err {err:.2e} bound {bound:.2e}",
        )

        # spectral gap at twice the threshold
        g = oracle.gap(model, 2 * eps0)
        yield (
            f"gap seed {seed}",
            g >= model.Delta / 2,
            f"gap {g:.4f} vs {model.Delta / 2:.4f}",
        )

        # correlator vs exact expectation, on an edge and two hops apart
        obs = TwoQubitOperator.from_pauli("ZI")
        eps = correlator_threshold(model)
        gs = oracle.ground(model, eps)
        for s, t, name in ((0, 1, "correlator"), (0, 2, "correlator-sites-0-2")):
            query = CorrelatorQuery(s=s, t=t, observable=obs, epsilon=eps, order=3)
            result = correlator(model, query)
            kexact = oracle.expectation(gs.state, obs, s, t)
            err = abs(result.value - kexact)
            yield (
                f"{name}-vs-exact seed {seed}",
                err <= result.bound + 1e-8,
                f"err {err:.2e} bound {result.bound:.2e}",
            )

        # extraction round trip
        coeffs = oracle.extract_creation_coefficients(gs.state)
        rebuilt = oracle.reconstruct_state(coeffs, model.n)
        rebuilt *= gs.state[0]
        dev = float(np.linalg.norm(rebuilt - gs.state))
        yield (f"extract-roundtrip seed {seed}", dev <= 1e-10, f"dev {dev:.2e}")


def _cmd_verify(args):
    # a model needs three qubits for the two-hop correlator, and a
    # battery that runs no check must not report a pass
    if args.max_qubits < 3:
        raise KtspinError(f"--max-qubits must be >= 3, got {args.max_qubits}")
    if args.seeds < 1:
        raise KtspinError(f"--seeds must be >= 1, got {args.seeds}")
    results = []
    for name, passed, detail in _verify_checks(args.max_qubits, args.seeds):
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    all_passed = all(r["passed"] for r in results)
    if args.json:
        print(json.dumps({"passed": all_passed, "checks": results}))
    else:
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']} ({r['detail']})")
        print(f"{'PASS' if all_passed else 'FAIL'} overall")
    return 0 if all_passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ktspin",
        description="Ground-state energy series and correlators for "
        "weakly interacting spin models on bounded-degree graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model", help="path to a model JSON file")
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    orderable = argparse.ArgumentParser(add_help=False)
    group = orderable.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=int, default=None, help="series order p")
    group.add_argument(
        "--precision", type=float, default=None, help="target precision; picks p"
    )

    p_info = sub.add_parser("info", parents=[common], help="model summary")
    p_info.set_defaults(func=_cmd_info)

    p_energy = sub.add_parser(
        "energy", parents=[common, orderable], help="energy estimate at a strength"
    )
    p_energy.add_argument("--epsilon", type=float, required=True)
    p_energy.add_argument("--threshold", type=float, default=0.0)
    p_energy.add_argument("--dump-coefficients", default=None, metavar="PATH")
    p_energy.add_argument("--strict", action="store_true")
    p_energy.set_defaults(func=_cmd_energy)

    p_series = sub.add_parser(
        "series", parents=[common, orderable], help="energy series coefficients"
    )
    p_series.add_argument("--threshold", type=float, default=0.0)
    p_series.add_argument("--dump-coefficients", default=None, metavar="PATH")
    p_series.set_defaults(func=_cmd_series)

    p_corr = sub.add_parser(
        "correlate", parents=[common, orderable], help="two-site correlator"
    )
    p_corr.add_argument("--s", type=int, required=True)
    p_corr.add_argument("--t", type=int, required=True)
    p_corr.add_argument(
        "--observable", required=True, help="Pauli expression or JSON file path"
    )
    p_corr.add_argument("--epsilon", type=float, required=True)
    p_corr.add_argument("--strict", action="store_true")
    p_corr.set_defaults(func=_cmd_correlate)

    p_clusters = sub.add_parser(
        "clusters", parents=[common], help="connected clusters through a vertex"
    )
    p_clusters.add_argument("--vertex", type=int, required=True)
    p_clusters.add_argument("--size", type=int, required=True)
    p_clusters.add_argument("--list", action="store_true")
    p_clusters.set_defaults(func=_cmd_clusters)

    p_verify = sub.add_parser(
        "verify", help="cross-check battery against dense references"
    )
    p_verify.add_argument("--max-qubits", type=int, default=8)
    p_verify.add_argument("--seeds", type=int, default=3)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KtspinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
