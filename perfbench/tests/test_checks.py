"""Hand-computed cases for the answer checkers."""

import math

import numpy as np
import pytest

from perfbench import checks

GRID = np.array(
    [
        [1.0, 5.0, 3.0],
        [5.0, 2.0, 5.0],
        [0.0, 4.0, 1.0],
    ]
)
FULL = (0, 0, 3, 3)


def test_linear_scores_by_hand():
    bands = {"a": np.array([[1.0, 2.0]]), "b": np.array([[10.0, 20.0]])}
    scores = checks.linear_scores(bands, {"a": 2.0, "b": 0.5}, intercept=1.0)
    assert scores.tolist() == [[8.0, 15.0]]


def test_knowledge_scores_by_hand():
    bands = {"x": np.array([[10.0, 12.0]]), "y": np.array([[3.0, 3.0]])}
    spec = {
        "rules": [
            {
                "weight": 3.0,
                "predicates": [
                    {"attribute": "x", "kind": "sigmoid", "threshold": 10.0, "steepness": 1.0},
                    {"attribute": "y", "kind": "gaussian", "center": 3.0, "width": 1.0},
                ],
            },
            {
                "weight": 1.0,
                "predicates": [
                    {"attribute": "y", "kind": "gaussian", "center": 4.0, "width": 1.0},
                ],
            },
        ]
    }
    scores = checks.knowledge_scores(bands, spec)
    gauss_off = math.exp(-0.5)
    # Cell 0: sigmoid(0) = 0.5, gaussian at centre = 1 -> min 0.5.
    assert scores[0, 0] == pytest.approx((3.0 * 0.5 + gauss_off) / 4.0)
    sig = 1.0 / (1.0 + math.exp(-2.0))
    assert scores[0, 1] == pytest.approx((3.0 * sig + gauss_off) / 4.0)


def test_tile_cosines_broadcast_each_tile():
    vectors = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # one row of two tiles
    cos = checks.tile_cosines(
        vectors, np.array([0]), np.array([0, 2]), example=(0, 3), shape=(1, 4)
    )
    assert cos.tolist() == [[0.0, 0.0, 1.0, 1.0]]


def test_expected_ranking_breaks_ties_by_row_then_col():
    assert checks.expected_ranking(GRID, FULL, 4) == [
        (0, 1, 5.0), (1, 0, 5.0), (1, 2, 5.0), (2, 1, 4.0),
    ]
    assert checks.expected_ranking(GRID, (1, 1, 3, 3), 2) == [(1, 2, 5.0), (2, 1, 4.0)]


def test_correct_answer_passes():
    assert checks.check_answers([(0, 1, 5.0), (1, 0, 5.0)], GRID, FULL, 2) == []


def test_other_cells_among_kth_ties_pass():
    # Three cells tie at 5.0; any two of them answer top-2 correctly.
    assert checks.check_answers([(0, 1, 5.0), (1, 2, 5.0)], GRID, FULL, 2) == []


def test_tie_order_must_follow_row_col():
    problems = checks.check_answers([(1, 0, 5.0), (0, 1, 5.0)], GRID, FULL, 2)
    assert problems and "not broken by (row, col)" in problems[0]


@pytest.mark.parametrize(
    "answers, fragment",
    [
        ([(0, 1, 5.0)], "returned 1 answers"),
        ([(0, 1, 5.0), (0, 1, 5.0)], "duplicate"),
        ([(0, 1, 5.0), (1, 0, 5.000001)], "dense score"),
        ([(2, 1, 4.0), (0, 1, 5.0)], "out of order"),
        ([(0, 1, 5.0), (2, 1, 4.0)], "K-th score"),
        ([(0, 1, 5.0), (9, 9, 5.0)], "outside region"),
    ],
)
def test_wrong_answers_are_caught(answers, fragment):
    problems = checks.check_answers(answers, GRID, FULL, 2)
    assert any(fragment in problem for problem in problems), problems


def test_missing_higher_cell_is_caught():
    grid = np.array([[3.0, 2.0, 2.0, 1.0]])
    # Right K-th score, but the best cell is missing.
    problems = checks.check_answers([(0, 1, 2.0), (0, 2, 2.0)], grid, (0, 0, 1, 4), 2)
    assert any("not returned" in problem for problem in problems), problems


def test_identical_means_bit_identical():
    assert checks.check_identical([(0, 1, 0.1)], [(0, 1, 0.1)], "x") == []
    next_up = float(np.nextafter(0.1, 1.0))
    assert checks.check_identical([(0, 1, 0.1)], [(0, 1, next_up)], "x")


def test_shadow_compares_bits():
    shadow = checks.Shadow({"b": np.zeros((2, 2))})
    shadow.apply({"b": np.ones((1, 1))}, (1, 1, 2, 2))
    assert shadow.mismatches({"b": np.array([[0.0, 0.0], [0.0, 1.0]])}) == []
    assert shadow.mismatches({"b": np.array([[-0.0, 0.0], [0.0, 1.0]])})
    assert shadow.mismatches({"b": np.zeros((2, 2))})
