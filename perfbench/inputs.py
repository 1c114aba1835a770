"""Seeded inputs: synthetic Landsat TM + DEM archives and query models.

The archive of each workload is generated from a fixed archive seed, so
that every run measures the same data and figures from different runs
compare; ``--seed`` draws everything the program is asked to do on it
(model variants, windows, example cells, fuzzy thresholds, ingested
blocks). Per-query cost varies a lot with where the data's extremes
lie, so letting the seed regenerate the archive would make the spread
between runs a property of the data instead of the program.
"""

from __future__ import annotations

import numpy as np

from repro.data.raster import RasterStack
from repro.models.fuzzy import gaussian_membership, sigmoid_membership
from repro.models.knowledge import FuzzyRule, KnowledgeModel, RulePredicate
from repro.models.linear import LinearModel
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem

BANDS = ("tm_band4", "tm_band5", "tm_band7", "elevation")

#: The published HPS risk coefficients (paper §2.1); variants scale each.
HPS = {"tm_band4": 0.443, "tm_band5": 0.222, "tm_band7": 0.153, "elevation": 0.183}


def landsat_stack(size: int, archive_seed: int) -> RasterStack:
    """TM bands 4/5/7 coupled to a fractal DEM, ``size`` x ``size``."""
    dem = generate_dem((size, size), seed=archive_seed)
    stack = generate_scene((size, size), seed=archive_seed + 1, terrain=dem)
    stack.add(dem)
    return stack


def bands_of(stack: RasterStack) -> dict[str, np.ndarray]:
    return {name: np.asarray(stack[name].values) for name in BANDS}


def hps_variant(rng: np.random.Generator) -> dict[str, float]:
    """HPS coefficients, each scaled by a factor in [0.8, 1.2]."""
    return {
        name: float(value * rng.uniform(0.8, 1.2)) for name, value in HPS.items()
    }


def linear_model(coefficients: dict[str, float]) -> LinearModel:
    return LinearModel(dict(coefficients), intercept=0.0, name="hps_variant")


def window(rng: np.random.Generator, size: int, side: int) -> tuple[int, int, int, int]:
    row = int(rng.integers(0, size - side + 1))
    col = int(rng.integers(0, size - side + 1))
    return (row, col, row + side, col + side)


class Quantiles:
    """Quantiles of each band, from one sort per band."""

    def __init__(self, bands: dict[str, np.ndarray]) -> None:
        self._sorted = {name: np.sort(values, axis=None) for name, values in bands.items()}
        self.std = {name: float(values.std()) for name, values in bands.items()}

    def at(self, name: str, q: float) -> float:
        values = self._sorted[name]
        return float(values[min(values.size - 1, int(q * values.size))])


def knowledge_spec(rng: np.random.Generator, quantiles: Quantiles) -> dict:
    """A Figure-3-style fuzzy rule set scaled to the data.

    Two rules, weighted 2:1: "band 4 high and elevation near a high
    level" (a sigmoid and a gaussian membership) and "band 5 high" (a
    sigmoid). Thresholds and the gaussian centre sit at high quantiles,
    steepness and width scale with each band's spread, so few tiles can
    reach the top scores and tile pruning works. The quantile ranges are
    narrow because query cost swings widely (30-300 ms on a 1024x1024
    archive) as thresholds move across the data's extremes; narrow
    ranges keep the per-run median a property of the program.
    """

    def sigmoid(name: str, q: float) -> dict:
        return {
            "attribute": name,
            "kind": "sigmoid",
            "threshold": quantiles.at(name, q),
            "steepness": 4.0 / quantiles.std[name],
        }

    def gaussian(name: str, q: float) -> dict:
        return {
            "attribute": name,
            "kind": "gaussian",
            "center": quantiles.at(name, q),
            "width": 0.3 * quantiles.std[name],
        }

    return {
        "rules": [
            {
                "weight": 2.0,
                "predicates": [
                    sigmoid("tm_band4", rng.uniform(0.97, 0.98)),
                    gaussian("elevation", rng.uniform(0.85, 0.9)),
                ],
            },
            {"weight": 1.0, "predicates": [sigmoid("tm_band5", rng.uniform(0.97, 0.98))]},
        ]
    }


def knowledge_model(spec: dict) -> KnowledgeModel:
    """The program's model for a rule spec (checkers read the spec)."""
    rules = []
    for index, rule in enumerate(spec["rules"]):
        predicates = []
        for predicate in rule["predicates"]:
            if predicate["kind"] == "sigmoid":
                membership = sigmoid_membership(predicate["threshold"], predicate["steepness"])
            else:
                membership = gaussian_membership(predicate["center"], predicate["width"])
            predicates.append(RulePredicate(predicate["attribute"], membership))
        rules.append(FuzzyRule(f"rule{index}", tuple(predicates), weight=rule["weight"]))
    return KnowledgeModel(rules, combination="weighted", name="figure3")
