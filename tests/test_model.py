import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from typesched.errors import BadExponent, BadSpec, DimensionMismatch, InvalidSchedule
from typesched.model import (
    GeneratorSpec,
    Instance,
    Schedule,
    evaluate_lp_norm_pow,
    evaluate_makespan,
    generate_instance,
    greedy_schedule,
    instance_digest,
    instance_from_json,
    instance_to_json,
    load_vector,
    make_instance,
    validate_instance,
)
from typesched.rationals import rat


def single_job_instance(cost=3):
    return make_instance(1, [1], [[[cost]]])


def test_validate_ok():
    assert validate_instance(single_job_instance()) == []


def test_validate_zero_cost():
    with pytest.raises(BadSpec, match="NonPositiveCost"):
        make_instance(1, [1], [[[0]]])


def test_validate_no_machines():
    with pytest.raises(BadSpec, match="EmptyMachineSet"):
        make_instance(1, [0], [[[3]]])


def test_validate_missing_entry():
    with pytest.raises(BadSpec, match="MissingCostEntry"):
        make_instance(2, [1, 1], [[[1, 2], [3]]])


def test_instance_normalizes_costs_to_rationals():
    raw = [[[2], [Fraction(3, 2)]], [["5/3"], [4]]]
    inst = Instance(1, [1, 2], raw)
    assert inst == make_instance(1, (1, 2), raw)
    assert inst.machine_counts == (1, 2)
    assert inst.costs == (((2,), (rat(3, 2),)), ((rat(5, 3),), (4,)))
    assert all(type(c) is type(rat(1)) for job in inst.costs for vec in job for c in vec)


@pytest.mark.parametrize(
    "cost, message",
    [
        (0, "NonPositiveCost: job 0 type 0 dim 0 cost 0"),
        ("-1/2", "NonPositiveCost: job 0 type 0 dim 0 cost -1/2"),
        ("abc", "NonRationalCost: job 0 type 0 dim 0 cost 'abc'"),
        ("1/0", "NonRationalCost: job 0 type 0 dim 0 cost '1/0'"),
        (None, "NonRationalCost: job 0 type 0 dim 0 cost None"),
    ],
)
def test_instance_rejects_a_bad_cost_at_construction(cost, message):
    # so no zero cost reaches a solver: exact_solve used to report optimum 0
    with pytest.raises(BadSpec) as info:
        Instance(1, (1,), (((cost,),),))
    assert str(info.value) == message


def test_instance_rejects_a_malformed_cost_table():
    with pytest.raises(BadSpec, match="MissingCostEntry: job 0 has 1 type entries, expected 2"):
        Instance(1, (1, 1), (((3,),),))
    with pytest.raises(BadSpec, match="EmptyJobSet"):
        Instance(1, (1,), ())
    with pytest.raises(BadSpec, match="malformed instance"):
        Instance(1, (1,), (5,))
    with pytest.raises(BadSpec, match="malformed instance"):
        Instance("D", (1,), (((3,),),))


def count_document(dims, count) -> str:
    doc = {"D": dims, "types": [{"machine_count": count}], "jobs": [{"costs": [["3"]]}]}
    return json.dumps(doc)


@pytest.mark.parametrize("dims, count", [(1.9, 1), (1, 1.5), ("3/2", 1), (1, "5/2")])
def test_instance_rejects_a_non_integral_count(dims, count):
    # int() truncated these: D=1.9 loaded as D=1, 1.5 machines as one
    with pytest.raises(BadSpec, match="is not a whole number"):
        instance_from_json(count_document(dims, count))
    with pytest.raises(BadSpec, match="is not a whole number"):
        Instance(dims, (count,), (((3,),),))


@pytest.mark.parametrize("dims, count", [(1, 2), (1.0, 2.0), ("1", "2")])
def test_instance_accepts_integral_counts(dims, count):
    built = Instance(dims, (count,), (((3,),),))
    for inst in (instance_from_json(count_document(dims, count)), built):
        assert (inst.dims, inst.machine_counts) == (1, (2,))
        assert type(inst.dims) is int and type(inst.machine_counts[0]) is int


def test_greedy_schedule_takes_the_longest_cheapest_cost_first():
    # cheapest costs 2, 4, 2: job 1 goes first, onto type 1 (growth 16 < 25),
    # then job 0 and job 2 onto type 0 (4 < 33, then 12 < 20)
    inst = make_instance(1, [1, 1], [[[2], [3]], [[5], [4]], [[2], [2]]])
    assert greedy_schedule(inst, 2).assignment == ((0, 0), (1, 0), (0, 0))
    # equal growth: the first machine in machine order
    twins = make_instance(1, [2], [[[3]], [[3]]])
    assert greedy_schedule(twins, 3).assignment == ((0, 0), (0, 1))
    with pytest.raises(DimensionMismatch):
        greedy_schedule(make_instance(2, [1], [[[1, 1]]]), 2)


def test_makespan_single_job():
    inst = single_job_instance(3)
    assert evaluate_makespan(inst, Schedule(((0, 0),))) == 3


def test_makespan_two_dims_one_machine():
    # jobs (1,4) and (2,1) stacked: loads (3,5), makespan 5
    inst = make_instance(2, [1], [[[1, 4]], [[2, 1]]])
    sched = Schedule(((0, 0), (0, 0)))
    assert evaluate_makespan(inst, sched) == 5


def test_makespan_empty_machine_contributes_zero():
    inst = make_instance(1, [2], [[[7]]])
    sched = Schedule(((0, 0),))
    loads = load_vector(inst, sched)
    assert loads[(0, 1)] == [0]
    assert evaluate_makespan(inst, sched) == 7


def test_makespan_rejects_partial_schedule():
    inst = make_instance(1, [1], [[[1]], [[1]]])
    with pytest.raises(InvalidSchedule):
        evaluate_makespan(inst, Schedule(((0, 0),)))
    with pytest.raises(InvalidSchedule):
        evaluate_makespan(inst, Schedule(((0, 0), (0, 5))))


def test_lp_norm_pow_examples():
    # loads (3, 4) at p=2 -> 25
    inst = make_instance(1, [2], [[[3]], [[4]]])
    sched = Schedule(((0, 0), (0, 1)))
    assert evaluate_lp_norm_pow(inst, sched, 2) == 25
    # single machine load L -> L^p
    assert evaluate_lp_norm_pow(single_job_instance(5), Schedule(((0, 0),)), 3) == 125
    # loads (1,1,1) at p=3 -> 3
    inst3 = make_instance(1, [3], [[[1]], [[1]], [[1]]])
    assert evaluate_lp_norm_pow(inst3, Schedule(((0, 0), (0, 1), (0, 2))), 3) == 3


def test_lp_norm_pow_guards():
    inst2d = make_instance(2, [1], [[[1, 1]]])
    with pytest.raises(DimensionMismatch):
        evaluate_lp_norm_pow(inst2d, Schedule(((0, 0),)), 2)
    with pytest.raises(BadExponent):
        evaluate_lp_norm_pow(single_job_instance(), Schedule(((0, 0),)), 1)


def test_lp_norm_pow_fractional_exponent():
    inst = make_instance(1, [2], [[[3]], [[4]]])
    sched = Schedule(((0, 0), (0, 1)))
    got = evaluate_lp_norm_pow(inst, sched, "5/2")
    expected = 3 ** 2.5 + 4 ** 2.5
    assert got == pytest.approx(expected, rel=1e-9)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_loads_match_incremental_accumulation(n_jobs, data):
    # recomputing loads from scratch equals running accumulation, exactly
    counts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    costs = [
        [[data.draw(st.integers(1, 9)) for _ in range(2)] for _ in counts]
        for _ in range(n_jobs)
    ]
    inst = make_instance(2, counts, costs)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    assignment = []
    running = {m: [rat(0), rat(0)] for m in inst.machines()}
    for j in range(n_jobs):
        m = rng.choice(list(inst.machines()))
        assignment.append(m)
        for d in range(2):
            running[m][d] += rat(inst.cost(j, m[0], d))
    assert load_vector(inst, Schedule(tuple(assignment))) == running


@given(st.data())
def test_within_type_permutation_preserves_objectives(data):
    n = data.draw(st.integers(1, 5))
    m0 = data.draw(st.integers(1, 3))
    costs = [[[data.draw(st.integers(1, 9))]] for _ in range(n)]
    inst = make_instance(1, [m0], costs)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    assignment = [(0, rng.randrange(m0)) for _ in range(n)]
    perm = list(range(m0))
    rng.shuffle(perm)
    permuted = [(0, perm[k]) for (_, k) in assignment]
    s1, s2 = Schedule(tuple(assignment)), Schedule(tuple(permuted))
    assert evaluate_makespan(inst, s1) == evaluate_makespan(inst, s2)
    assert evaluate_lp_norm_pow(inst, s1, 2) == evaluate_lp_norm_pow(inst, s2, 2)


def test_json_round_trip_with_rationals():
    inst = make_instance(2, [2, 1], [[["3/2", 4], [1, "7/3"]], [[2, 2], [5, "1/6"]]])
    again = instance_from_json(instance_to_json(inst))
    assert again == inst
    assert again.cost(0, 0, 0) == rat(3, 2)


def test_generator_is_deterministic():
    spec = GeneratorSpec(num_jobs=6, dims=2, machine_counts=(2, 2), cost_min=1, cost_max=10)
    a = generate_instance(spec, 7)
    b = generate_instance(spec, 7)
    assert a == b
    assert instance_digest(a) == instance_digest(b)
    assert generate_instance(spec, 8) != a


def test_generator_single_point_spec():
    spec = GeneratorSpec(num_jobs=1, dims=1, machine_counts=(1,), cost_min=3, cost_max=3)
    inst = generate_instance(spec, 123)
    assert inst == single_job_instance(3)


def test_generator_golden_digest():
    # frozen on first build; guards serialization and RNG stability
    spec = GeneratorSpec(num_jobs=6, dims=2, machine_counts=(2, 2), cost_min=1, cost_max=10)
    assert instance_digest(generate_instance(spec, 7)) == GOLDEN_DIGEST_SEED7


GOLDEN_DIGEST_SEED7 = "9fc0040a27b9605c"
