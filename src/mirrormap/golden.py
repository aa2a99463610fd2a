"""Embedded golden coefficient tables and the comparison driver.

Each table pins the low-order coefficients of one computed series; the
report compares them exponent by exponent and records the first mismatch.
A requested order below a table's reach yields "partial", never "fail".
"""

from __future__ import annotations

from .mirror import mirror_data
from .series import Q, rat
from .yukawa import instanton_numbers, yukawa_coupling

GOLDEN_TABLES = {
    "s3": {
        "q_of_z": {"var": "z", "val": 1,
                   "coeffs": [1, 15, 279, 5729, 124554, 2810718, 65114402]},
        "z_of_q": {"var": "q", "val": 1,
                   "coeffs": [1, -15, 171, -1679, 15054, -126981, 1024952]},
        "f0_tilde": {"var": "q", "val": 0,
                     "coeffs": [1, 6, 0, 6, 6, 0, 0, 12, 0, 6, 0,
                                0, 6, 12, 0, 0, 6, 0, 0, 12, 0]},
    },
    "s4": {
        "q_of_z": {"var": "z", "val": 1,
                   "coeffs": [1, 104, 15188, 2585184, 480222434,
                              94395247376]},
        "z_of_q": {"var": "q", "val": 1,
                   "coeffs": [1, -104, 6444, -311744, 13018830,
                              -493025760]},
        "f0_tilde": {"var": "q", "val": 0,
                     "coeffs": [1, 24, 24, 96, 24, 144, 96, 192, 24]},
    },
    "s5": {
        "z_of_q": {"var": "q", "val": 1,
                   "coeffs": [1, -770, 171525, -81623000, -35423171250,
                              -54572818340154, -71982448083391590,
                              -102693620674349200800]},
        "f0_tilde": {"var": "q", "val": 0,
                     "coeffs": [1, 120, 21000, 14115000, 13414125000,
                                15234972675120, 19285869813670920,
                                26264963911492602000]},
        "g0": {"var": "z", "val": 0,
               "coeffs": [1, 120, 113400, 168168000, 305540235000]},
        "g1": {"var": "z", "val": 0,
               "coeffs": [0, 770, 810225, Q(3745679000, 3),
                          Q(4627120640625, 2)]},
        "g2": {"var": "z", "val": 0,
               "coeffs": [0, 575, Q(4208175, 4), Q(16964522000, 9),
                          Q(180021646778125, 48)]},
        "g3": {"var": "z", "val": 0,
               "coeffs": [0, -1150, Q(-3298375, 4), Q(-46661619875, 54),
                          Q(-325329574909375, 288)]},
    },
    "yukawa": {
        "K": {"var": "q", "val": 0,
              "coeffs": [5, 2875, 4876875, 8564575000, 15517926796875]},
        # n2, n3 pinned by applying the divisor-sum inversion to the K
        # coefficients above by hand
        "instantons": [2875, 609250, 317206375],
    },
}


def _compare(name, computed, table, order):
    """One report item: pass / fail(first_mismatch) / partial; a series in
    another variable than the table's fails."""
    if computed.var != table["var"]:
        return {"item": name, "status": "fail",
                "expected": table["var"], "computed": computed.var}
    val = table["val"]
    end = val + len(table["coeffs"])
    limit = min(order + 1, end, computed.order)
    status = "pass" if limit >= end else "partial"
    for n in range(val, limit):
        want = rat(table["coeffs"][n - val])
        got = computed.coeff(n)
        if got != want:
            return {"item": name, "status": "fail", "first_mismatch": n,
                    "expected": str(want), "computed": str(got)}
    return {"item": name, "status": status, "checked_through": limit - 1}


def golden_report(order: int = 24):
    """Compare every golden table against freshly computed series."""
    items = []
    for s in (3, 4, 5):
        key = f"s{s}"
        md = mirror_data(s, max(order + 1, 8))
        for name, table in GOLDEN_TABLES[key].items():
            # "g<m>" names a Frobenius component, anything else a series
            # of the bundle
            computed = (md.g[int(name[1:])] if name.startswith("g")
                        else getattr(md, name))
            items.append(_compare(f"{key}.{name}", computed, table, order))
    K = yukawa_coupling(max(order + 1, 8))
    items.append(_compare("yukawa.K", K, GOLDEN_TABLES["yukawa"]["K"], order))
    want_n = GOLDEN_TABLES["yukawa"]["instantons"]
    got = instanton_numbers(K, len(want_n)).n
    for i, (w, g) in enumerate(zip(want_n, got), start=1):
        ok = rat(w) == g
        item = {"item": f"yukawa.n{i}", "status": "pass" if ok else "fail"}
        if not ok:
            item.update({"expected": str(w), "computed": str(g)})
        items.append(item)
    return items
