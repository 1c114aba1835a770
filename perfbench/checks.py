"""Answer checkers that never call the program's search code.

Every score here is recomputed densely with numpy from the raw band
arrays and the plain model parameters (a coefficient dict, a fuzzy-rule
spec), so a bug in the engine, the router, an index, the cache or the
wire codec cannot hide behind a shared code path. Nothing in this module
imports :mod:`repro`.

The documented ranking contract is: score descending, ties broken by
``(row, col)`` ascending. Scores are compared with a tight relative
tolerance, because the dense numpy sums here may round differently in
the last bit from the program's evaluation order; among cells whose
scores tie at the K-th score (within that tolerance) any choice is
accepted.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

#: Relative / absolute score tolerance. Float64 evaluation of the same
#: formula in a different order differs by a few ulps (~1e-16 relative);
#: 1e-9 leaves room for that and still catches any real scoring error.
REL_TOL = 1e-9
ABS_TOL = 1e-12

Answer = tuple[int, int, float]
Region = tuple[int, int, int, int]


def tolerance(value: float) -> float:
    """Allowed absolute score difference around ``value``."""
    return ABS_TOL + REL_TOL * abs(value)


# -- dense scoring ----------------------------------------------------------


def linear_scores(
    bands: Mapping[str, np.ndarray],
    coefficients: Mapping[str, float],
    intercept: float = 0.0,
) -> np.ndarray:
    """``intercept + sum(c * band)`` over the whole grid."""
    total = None
    for name, coefficient in coefficients.items():
        term = float(coefficient) * np.asarray(bands[name], dtype=np.float64)
        total = term if total is None else total + term
    return total + float(intercept)


def membership(values: np.ndarray, predicate: Mapping) -> np.ndarray:
    """Degree of one fuzzy predicate, clipped to [0, 1]."""
    kind = predicate["kind"]
    if kind == "sigmoid":
        exponent = np.clip(
            -predicate["steepness"] * (values - predicate["threshold"]),
            -60.0,
            60.0,
        )
        degree = 1.0 / (1.0 + np.exp(exponent))
    elif kind == "gaussian":
        z = (values - predicate["center"]) / predicate["width"]
        degree = np.exp(-0.5 * z * z)
    else:
        raise ValueError(f"unknown membership kind {kind!r}")
    return np.clip(degree, 0.0, 1.0)


def knowledge_scores(
    bands: Mapping[str, np.ndarray], spec: Mapping
) -> np.ndarray:
    """Weighted average over rules of the min over each rule's predicates.

    ``spec`` is ``{"rules": [{"weight": w, "predicates": [...]}, ...]}``
    with predicates as :func:`membership` reads them.
    """
    total = None
    weight_sum = 0.0
    for rule in spec["rules"]:
        degree = None
        for predicate in rule["predicates"]:
            values = np.asarray(bands[predicate["attribute"]], dtype=np.float64)
            current = membership(values, predicate)
            degree = current if degree is None else np.minimum(degree, current)
        weighted = float(rule["weight"]) * degree
        total = weighted if total is None else total + weighted
        weight_sum += float(rule["weight"])
    return total / weight_sum


def tile_cosines(
    vectors: np.ndarray,
    row_starts: np.ndarray,
    col_starts: np.ndarray,
    example: tuple[int, int],
    shape: tuple[int, int],
) -> np.ndarray:
    """Per-cell inner product of each cell's tile vector with the example
    tile's vector (the vectors are stored unit-length, so this is their
    cosine). ``vectors`` has shape ``(tile_rows, tile_cols, dim)``."""
    grid = np.asarray(vectors, dtype=np.float64)
    tile_row = np.searchsorted(row_starts, example[0], side="right") - 1
    tile_col = np.searchsorted(col_starts, example[1], side="right") - 1
    per_tile = grid @ grid[tile_row, tile_col]
    rows = np.searchsorted(row_starts, np.arange(shape[0]), side="right") - 1
    cols = np.searchsorted(col_starts, np.arange(shape[1]), side="right") - 1
    return per_tile[np.ix_(rows, cols)]


def fused_scores(
    model_scores: np.ndarray, cosines: np.ndarray, alpha: float
) -> np.ndarray:
    """``alpha * model + (1 - alpha) * cosine`` per cell."""
    return alpha * model_scores + (1.0 - alpha) * cosines


# -- ranking ------------------------------------------------------------------


def expected_ranking(dense: np.ndarray, region: Region, k: int) -> list[Answer]:
    """The top-``k`` cells of ``dense`` inside ``region`` under the
    documented tie-break, by ``np.lexsort`` (score descending, then row,
    then column ascending)."""
    row0, col0, row1, col1 = region
    window = dense[row0:row1, col0:col1]
    flat = window.reshape(-1)
    want = min(k, flat.size)
    # Partition first so lexsort runs on the candidates only: every cell
    # scoring at least the K-th largest value, ties included.
    kth = np.partition(flat, flat.size - want)[flat.size - want]
    candidates = np.flatnonzero(flat >= kth)
    rows = candidates // window.shape[1] + row0
    cols = candidates % window.shape[1] + col0
    order = np.lexsort((cols, rows, -flat[candidates]))[:want]
    return [
        (int(rows[i]), int(cols[i]), float(flat[candidates[i]]))
        for i in order
    ]


def check_answers(
    answers: Sequence[Answer],
    dense: np.ndarray,
    region: Region,
    k: int,
) -> list[str]:
    """Problems with a returned top-``k`` answer list (empty when right).

    Checks, in order: the answer count; no duplicate cells; every cell
    inside the region; every returned score equal to the dense score of
    its cell; the returned order (score descending, exact ties by
    ``(row, col)``); the K-th score equal to the dense K-th score; and
    that every cell scoring clearly above the K-th score was returned,
    so cells may differ from the expected ranking only among ties at
    the K-th score.
    """
    row0, col0, row1, col1 = region
    n_cells = (row1 - row0) * (col1 - col0)
    want = min(k, n_cells)
    problems: list[str] = []
    if len(answers) != want:
        return [f"returned {len(answers)} answers, expected {want}"]
    cells = [(int(row), int(col)) for row, col, _ in answers]
    if len(set(cells)) != len(cells):
        problems.append("duplicate cells in the answer")
    for row, col, score in answers:
        if not (row0 <= row < row1 and col0 <= col < col1):
            problems.append(f"cell {(row, col)} lies outside region {region}")
            continue
        truth = float(dense[row, col])
        if abs(float(score) - truth) > tolerance(truth):
            problems.append(
                f"cell {(row, col)} scored {score!r}, dense score {truth!r}"
            )
    for (r_a, c_a, s_a), (r_b, c_b, s_b) in zip(answers, answers[1:]):
        if s_a < s_b - tolerance(s_b):
            problems.append(f"answers out of order at {(r_a, c_a)}, {(r_b, c_b)}")
        elif s_a == s_b and (r_a, c_a) > (r_b, c_b):
            problems.append(
                f"tie at score {s_a!r} not broken by (row, col): "
                f"{(r_a, c_a)} before {(r_b, c_b)}"
            )
    if problems:
        return problems
    expected = expected_ranking(dense, region, want)
    kth = expected[-1][2]
    returned_kth = float(answers[-1][2])
    if abs(returned_kth - kth) > tolerance(kth):
        problems.append(f"K-th score {returned_kth!r}, dense K-th {kth!r}")
    window = dense[row0:row1, col0:col1]
    above = np.argwhere(window > kth + tolerance(kth))
    returned = set(cells)
    for local_row, local_col in above:
        cell = (int(local_row) + row0, int(local_col) + col0)
        if cell not in returned:
            problems.append(
                f"cell {cell} scores {float(dense[cell])!r} > K-th {kth!r} "
                "but was not returned"
            )
            break
    return problems


def check_identical(
    got: Sequence[Answer], reference: Sequence[Answer], what: str
) -> list[str]:
    """Bit-identity of two answer lists (batch member vs its solo run)."""
    if [tuple(a) for a in got] != [tuple(a) for a in reference]:
        return [f"{what}: answers differ from the reference run"]
    return []


# -- ingest shadow ------------------------------------------------------------


class Shadow:
    """A numpy copy of every band, updated exactly like the store."""

    def __init__(self, bands: Mapping[str, np.ndarray]) -> None:
        self.bands = {
            name: np.array(values, dtype=np.float64, copy=True)
            for name, values in bands.items()
        }

    def apply(self, updates: Mapping[str, np.ndarray], region: Region) -> None:
        row0, col0, row1, col1 = region
        for name, block in updates.items():
            self.bands[name][row0:row1, col0:col1] = block

    def mismatches(self, bands: Mapping[str, np.ndarray]) -> list[str]:
        """Bands whose bytes differ from the shadow (bitwise compare)."""
        problems = []
        for name, expected in self.bands.items():
            got = np.asarray(bands[name])
            if got.shape != expected.shape or got.dtype != expected.dtype:
                problems.append(f"band {name!r}: shape/dtype differ")
            elif not np.array_equal(
                got.view(np.uint64), expected.view(np.uint64)
            ):
                problems.append(f"band {name!r}: bytes differ from shadow")
        return problems
