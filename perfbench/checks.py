"""Correctness checks on every benchmark operation.

Two kinds of check, both by tolerance rather than bytes:

* Closed forms that hold for any seed, computed here from the model
  document alone: E_1 and E_2 of the energy series (first- and
  second-order Rayleigh-Schroedinger perturbation theory), the order-1
  coefficient table, and the first two correlator coefficients.
* Stored references for the default and the held-out seed
  (``references.json``): every E_q, every correlator value and
  coefficient, and the per-order entry counts of the coefficient dump.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import edge_matrix

REFERENCES = Path(__file__).with_name("references.json")

RTOL = 1e-8          # relative tolerance against references and closed forms
ATOL_SCALE = 1e-12   # absolute slack, times the magnitude scale of the quantity
CERTIFIED = "lemma9"


def close(a, b, scale):
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL_SCALE * scale


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def reference(refs, workload, seed):
    return refs.get(workload, {}).get(str(seed))


def as_complex(pair):
    return complex(pair[0], pair[1])


# --- closed forms -------------------------------------------------------

def _pair_sets(u, v):
    """Excited sets one edge reaches from the vacuum, with their 4x4 index."""
    return (((v,), 1), ((u,), 2), ((u, v) if u < v else (v, u), 3))


def first_order(doc):
    """a_x = <x|V|vac>, b_x = <vac|V|x> and excitation energies E_x."""
    deltas = [float(v["delta"]) for v in sorted(doc["vertices"], key=lambda v: v["id"])]
    a, b, a_abs = {}, {}, {}
    for e in doc["edges"]:
        m = edge_matrix(e)
        for x, idx in _pair_sets(e["u"], e["v"]):
            a[x] = a.get(x, 0j) + m[idx][0]
            b[x] = b.get(x, 0j) + m[0][idx]
            a_abs[x] = a_abs.get(x, 0.0) + abs(m[idx][0])
    energy = {x: sum(deltas[w] for w in x) for x in a}
    return a, b, a_abs, energy


def energy_closed_form(doc):
    """[(E_1, scale), (E_2, scale)] with scale the sum of absolute terms."""
    e1 = sum(edge_matrix(e)[0][0] for e in doc["edges"])
    s1 = sum(abs(edge_matrix(e)[0][0]) for e in doc["edges"])
    a, b, _a_abs, energy = first_order(doc)
    e2 = -sum(b[x] * a[x] / energy[x] for x in a)
    s2 = sum(abs(b[x] * a[x]) / energy[x] for x in a)
    return [(e1, s1), (e2, s2)]


def correlator_closed_form(doc, query):
    """[(c_0, scale), (c_1, scale)] for the query's observable on (s, t)."""
    a, b, _a_abs, energy = first_order(doc)
    o = query.matrix
    o_max = float(abs(o).max())
    c1 = 0j
    s1 = 0.0
    for x, idx in _pair_sets(query.s, query.t):
        ax, bx = a.get(x, 0j), b.get(x, 0j)
        c1 -= (o[0][idx] * ax + bx * o[idx][0]) / energy[x]
        s1 += o_max * (abs(ax) + abs(bx)) / energy[x]
    return [(complex(o[0][0]), o_max), (c1, s1)]


# --- energy and series requests ------------------------------------------

def check_series(stdout, rc, doc, order, ref, certified):
    """Failures of one ``energy`` or ``series`` CLI request."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON object: {exc}"]
    coeffs = [as_complex(c) for c in payload.get("coefficients", [])]
    fails = []
    if payload.get("p") != order or len(coeffs) != order:
        fails.append(f"expected {order} coefficients, got p={payload.get('p')} and {len(coeffs)}")
        return fails
    if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
        fails.append("non-finite coefficient")
    if certified and payload.get("bound") is None:
        fails.append("no certified bound at eps0/2")
    for q, (want, scale) in enumerate(energy_closed_form(doc), start=1):
        if not close(coeffs[q - 1], want, scale):
            fails.append(f"E_{q} = {coeffs[q - 1]!r}, closed form {want!r}")
    if ref is not None:
        for q, (got, want) in enumerate(zip(coeffs, ref["coefficients"]), start=1):
            want = as_complex(want)
            if not close(got, want, abs(want)):
                fails.append(f"E_{q} = {got!r}, reference {want!r}")
    return fails


def dump_summary(path):
    """sha256, size in bytes, per-order line counts and order-1 entries of a dump."""
    digest = hashlib.sha256()
    counts = {}
    order1 = {}
    size = 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            size += len(line)
            q = int(line[6:line.index(b",")])  # lines start with {"q": <order>,
            counts[q] = counts.get(q, 0) + 1
            if q == 1:
                rec = json.loads(line)
                order1[tuple(rec["M"])] = complex(rec["re"], rec["im"])
    return {"sha256": digest.hexdigest(), "bytes": size, "counts": counts, "order1": order1}


def check_dump(summary, doc, ref):
    """Failures of a coefficient dump: order-1 closed form and reference counts."""
    fails = []
    a, _b, a_abs, energy = first_order(doc)
    want = {x: a[x] / energy[x] for x in a if a[x] != 0}
    got = summary["order1"]
    if set(got) != set(want):
        fails.append(f"order-1 dump holds {len(got)} sets, closed form {len(want)}")
    else:
        for x, value in want.items():
            if not close(got[x], value, a_abs[x] / energy[x]):
                fails.append(f"order-1 coefficient of {x}: {got[x]!r}, closed form {value!r}")
                break
    if ref is not None:
        counts = {str(q): c for q, c in summary["counts"].items()}
        if counts != ref["dump_counts"]:
            fails.append(f"dump counts {counts}, reference {ref['dump_counts']}")
    return fails


# --- correlator queries ----------------------------------------------------

def order_scales(ref):
    """Largest reference magnitude per correlator order over the whole batch."""
    scales = []
    for rec in ref["queries"]:
        for q, c in enumerate(rec["coefficients"]):
            if q == len(scales):
                scales.append(0.0)
            scales[q] = max(scales[q], abs(as_complex(c)))
    return scales


def check_query(result, query, doc, ref_rec, scales):
    """Failures of one correlator request."""
    fails = []
    coeffs = list(result.coefficients)
    value = result.value
    if result.regime != CERTIFIED or result.bound is None or not math.isfinite(result.bound):
        fails.append(f"regime {result.regime!r} with bound {result.bound!r}, expected certified")
    if len(coeffs) != query.order + 1:
        return fails + [f"{len(coeffs)} coefficients for order {query.order}"]
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return fails + ["non-finite value"]
    series = sum(c * query.epsilon**q for q, c in enumerate(coeffs))
    if not close(value, series, sum(abs(c) * query.epsilon**q for q, c in enumerate(coeffs))):
        fails.append(f"value {value!r} differs from its coefficient sum {series!r}")
    for q, (want, scale) in enumerate(correlator_closed_form(doc, query)):
        if not close(coeffs[q], want, scale):
            fails.append(f"c_{q} = {coeffs[q]!r}, closed form {want!r}")
    if ref_rec is not None:
        want = as_complex(ref_rec["value"])
        if not close(value, want, abs(want)):
            fails.append(f"value {value!r}, reference {want!r}")
        for q, (got, w) in enumerate(zip(coeffs, ref_rec["coefficients"])):
            w = as_complex(w)
            if not close(got, w, scales[q]):
                fails.append(f"c_{q} = {got!r}, reference {w!r}")
    return fails
