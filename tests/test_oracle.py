import itertools
import random
from functools import lru_cache

import pytest

from typesched.errors import TooLarge
from typesched.model import (
    GeneratorSpec,
    Schedule,
    evaluate_lp_norm_pow,
    evaluate_makespan,
    generate_instance,
    make_instance,
)
from typesched.oracle import exact_solve
from typesched.rationals import parse_rational, rat


def test_one_job_two_identical_machines():
    inst = make_instance(1, [2], [[[5]]])
    res = exact_solve(inst)
    assert res.optimum == 5
    assert res.witness.assignment == ((0, 0),)  # canonicalization picks machine 0


def test_two_unit_jobs_split_not_stacked():
    inst = make_instance(1, [2], [[[1]], [[1]]])
    res = exact_solve(inst, "lp_norm", p=2)
    assert res.optimum == 2
    assert evaluate_lp_norm_pow(inst, res.witness, 2) == 2


def test_three_jobs_two_types_makespan_six():
    # type costs per job: (1,10), (10,1), (5,5); one machine per type.
    # All 2^3 assignments enumerated by hand give optimum 6.
    inst = make_instance(1, [1, 1], [[[1], [10]], [[10], [1]], [[5], [5]]])
    by_hand = min(
        max(
            sum(rat(inst.cost(j, 0, 0)) for j in range(3) if pick[j] == 0) or rat(0),
            sum(rat(inst.cost(j, 1, 0)) for j in range(3) if pick[j] == 1) or rat(0),
        )
        for pick in itertools.product([0, 1], repeat=3)
    )
    assert by_hand == 6
    res = exact_solve(inst)
    assert res.optimum == 6
    assert evaluate_makespan(inst, res.witness) == 6


def test_witness_achieves_optimum_and_bounds_random_schedules():
    rng = random.Random(5)
    for trial in range(20):
        spec = GeneratorSpec(
            num_jobs=rng.randint(1, 5),
            dims=rng.choice([1, 2]),
            machine_counts=(rng.randint(1, 2), rng.randint(1, 2)),
            cost_min=1,
            cost_max=9,
        )
        inst = generate_instance(spec, 100 + trial)
        res = exact_solve(inst)
        assert evaluate_makespan(inst, res.witness) == res.optimum
        for _ in range(10):
            sched = Schedule(
                tuple(
                    (t, rng.randrange(inst.machine_counts[t]))
                    for t in (rng.randrange(inst.num_types) for _ in range(inst.num_jobs))
                )
            )
            assert evaluate_makespan(inst, sched) >= res.optimum


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def partitions_into_unlabeled(k_jobs: int, machines: int) -> int:
    # jobs -> at most `machines` unlabeled machines (empties allowed)
    return sum(stirling2(k_jobs, i) for i in range(0, machines + 1))


def canonical_count(n_jobs: int, machine_counts: tuple[int, ...]) -> int:
    # split jobs across types, then partition each group into the type's
    # unlabeled machines; independent combinatorial prediction
    total = 0
    for split in itertools.product(range(len(machine_counts)), repeat=n_jobs):
        prod = 1
        for t, m in enumerate(machine_counts):
            k = sum(1 for s in split if s == t)
            if k > 0 and m == 0:
                prod = 0
                break
            prod *= stirling2_pack(k, m)
        total += prod
    return total


@lru_cache(maxsize=None)
def stirling2_pack(k: int, m: int) -> int:
    # ways to place k labeled jobs on m unlabeled machines (empties allowed)
    if k == 0:
        return 1
    return sum(stirling2(k, i) for i in range(1, m + 1))


@pytest.mark.parametrize(
    "n,counts",
    [(1, (2,)), (2, (2,)), (3, (2,)), (4, (3,)), (3, (1, 2)), (4, (2, 2))],
)
def test_unpruned_search_matches_combinatorics(n, counts):
    costs = [[[((j + 2) * (t + 3)) % 7 + 1] for t in range(len(counts))] for j in range(n)]
    inst = make_instance(1, counts, costs)
    # the canonical search space does not depend on the objective
    for objective, p in (("makespan", None), ("lp_norm", 2)):
        res = exact_solve(inst, objective, p=p, prune=False)
        assert res.explored == canonical_count(n, counts), objective


def test_pruning_never_changes_the_optimum():
    for seed in range(15):
        spec = GeneratorSpec(6, 1, (2, 2), 1, 10)
        inst = generate_instance(spec, seed)
        fast = exact_solve(inst, "lp_norm", p=2)
        slow = exact_solve(inst, "lp_norm", p=2, prune=False)
        assert fast.optimum == slow.optimum
        assert fast.explored <= slow.explored


def test_size_caps():
    inst = make_instance(1, [6], [[[1]]])
    with pytest.raises(TooLarge):
        exact_solve(inst)
    big = make_instance(1, [1], [[[1]]] * 9)
    with pytest.raises(TooLarge):
        exact_solve(big)


# Rational costs, D = 2, types with 0 machines; (dims, machine_counts, costs).
PIN_INSTANCES = [
    (1, (2, 1), [[["7/10"], ["1/2"]], [["3"], ["5/4"]], [["2/3"], ["1/2"]], [["3"], ["7/10"]], [["3"], ["2/3"]]]),
    (1, (0, 2, 1), [[["5/4"], ["1/2"], ["3"]], [["3"], ["7/10"], ["2/3"]], [["7/10"], ["5/4"], ["3"]], [["5/4"], ["1/2"], ["2/3"]], [["5/4"], ["3"], ["2/3"]]]),
    (1, (1, 1, 1), [[["5/4"], ["1/9"], ["3"]], [["1/2"], ["3"], ["3"]], [["7/10"], ["3"], ["3"]], [["1/2"], ["5/4"], ["1/2"]], [["7/10"], ["1/9"], ["2/3"]], [["3"], ["7/10"], ["7/10"]]]),
    (1, (3,), [[["1/9"]], [["3"]], [["3"]], [["1/2"]], [["2/3"]], [["7/10"]]]),
    (2, (2, 0), [[["2/3", "2/3"], ["1/2", "2/3"]], [["7/10", "7/10"], ["2/3", "5/4"]], [["1/2", "7/10"], ["1/2", "1/2"]], [["1/9", "3"], ["1/2", "1/9"]]]),
    (2, (1, 2), [[["2/3", "5/4"], ["2/3", "5/4"]], [["3", "7/10"], ["5/4", "1/9"]], [["2/3", "3"], ["5/4", "1/2"]], [["1/2", "7/10"], ["2/3", "1/2"]], [["1/2", "2/3"], ["7/10", "5/4"]]]),
]

# (instance, p or None for makespan, optimum, witness, explored with pruning,
# explored without); an optimum is a rational string, or float.hex for a
# non-integral p.  Recorded from the search over rational loads, before it ran
# on integer-scaled costs.
ORACLE_PINS = [
    (0, None, '157/60', ((0, 0), (1, 0), (0, 0), (1, 0), (1, 0)), 24, 122),
    (0, '2', '28013/3600', ((0, 0), (1, 0), (0, 1), (1, 0), (1, 0)), 33, 122),
    (0, '3', '4007981/216000', ((0, 0), (1, 0), (0, 1), (1, 0), (1, 0)), 36, 122),
    (0, '3/2', '0x1.57372e17bc30ap+2', ((0, 0), (1, 0), (0, 1), (1, 0), (1, 0)), 33, 122),
    (0, '5/2', '0x1.7b274a694a4d7p+3', ((0, 0), (1, 0), (0, 1), (1, 0), (1, 0)), 36, 122),
    (1, None, '4/3', ((1, 0), (1, 0), (1, 1), (2, 0), (2, 0)), 15, 122),
    (1, '2', '625/144', ((1, 0), (2, 0), (1, 1), (1, 0), (2, 0)), 27, 122),
    (1, '3', '9199/1728', ((1, 0), (2, 0), (1, 1), (1, 0), (2, 0)), 18, 122),
    (1, '3/2', '0x1.f7f44ef9f1afcp+1', ((1, 0), (2, 0), (1, 1), (1, 0), (2, 0)), 27, 122),
    (1, '5/2', '0x1.332ec2d077248p+2', ((1, 0), (2, 0), (1, 1), (1, 0), (2, 0)), 24, 122),
    (2, None, '6/5', ((1, 0), (0, 0), (0, 0), (2, 0), (1, 0), (1, 0)), 24, 729),
    (2, '2', '10289/4050', ((1, 0), (0, 0), (0, 0), (2, 0), (1, 0), (1, 0)), 21, 729),
    (2, '3', '240328/91125', ((1, 0), (0, 0), (0, 0), (2, 0), (1, 0), (1, 0)), 30, 729),
    (2, '3/2', '0x1.46e04955ff055p+1', ((1, 0), (0, 0), (0, 0), (2, 0), (1, 0), (1, 0)), 18, 729),
    (2, '5/2', '0x1.491574f4f17acp+1', ((1, 0), (0, 0), (0, 0), (2, 0), (1, 0), (1, 0)), 24, 729),
    (3, None, '3', ((0, 0), (0, 1), (0, 2), (0, 0), (0, 0), (0, 0)), 26, 122),
    (3, '2', '44371/2025', ((0, 0), (0, 1), (0, 2), (0, 0), (0, 0), (0, 0)), 32, 122),
    (3, '3', '5625719/91125', ((0, 0), (0, 1), (0, 2), (0, 0), (0, 0), (0, 0)), 32, 122),
    (3, '3/2', '0x1.a58f22ec4c12ep+3', ((0, 0), (0, 1), (0, 2), (0, 0), (0, 0), (0, 0)), 50, 122),
    (3, '5/2', '0x1.256c6c5145774p+5', ((0, 0), (0, 1), (0, 2), (0, 0), (0, 0), (0, 0)), 32, 122),
    (4, None, '3', ((0, 0), (0, 0), (0, 0), (0, 1)), 2, 8),
    (5, None, '23/12', ((0, 0), (1, 0), (1, 1), (1, 0), (0, 0)), 20, 122),
]


def _brute_force(inst, p):
    """The least objective over every labelled assignment: makespan for p
    None, else the sum of load^p."""
    schedules = map(Schedule, itertools.product(list(inst.machines()), repeat=inst.num_jobs))
    if p is None:
        return min(evaluate_makespan(inst, s) for s in schedules)
    return min(evaluate_lp_norm_pow(inst, s, p) for s in schedules)


@pytest.mark.parametrize("pin", ORACLE_PINS, ids=lambda pin: f"{pin[0]}-p{pin[1]}")
def test_oracle_outputs_are_pinned(pin):
    i, p, optimum, witness, explored_pruned, explored_all = pin
    dims, counts, costs = PIN_INSTANCES[i]
    inst = make_instance(dims, counts, costs)
    p = None if p is None else parse_rational(p)
    exact = p is None or p.denominator == 1
    for prune, explored in ((True, explored_pruned), (False, explored_all)):
        res = exact_solve(inst, "makespan" if p is None else "lp_norm", p=p, prune=prune)
        if exact:
            assert type(res.optimum) is type(rat(0))
            assert res.optimum == parse_rational(optimum)
        else:
            assert type(res.optimum) is float
            assert res.optimum.hex() == optimum
        assert res.witness.assignment == witness
        assert res.explored == explored
    expected = _brute_force(inst, p)
    if exact:
        assert res.optimum == expected
    else:
        assert res.optimum == pytest.approx(expected, rel=1e-12)
