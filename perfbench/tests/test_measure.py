import pytest

from perfbench.measure import REF_S, input_times, scaled_s, tail_rank, tail_value
from perfbench.tracing import Item


def test_tail_value_is_the_nearest_rank():
    samples = list(range(100, 0, -1))
    assert tail_value(samples, 90) == (90, 10)
    assert tail_value(samples[:40], 75) == (90, 10)
    assert tail_value([3.0], 90) == (3.0, 0)


@pytest.mark.parametrize("n, rank", [(5, 4), (10, 8), (20, 15), (40, 30)])
def test_p75_over_the_inputs(n, rank):
    assert tail_rank(n, 75) == rank


def test_tail_rejects_bad_input():
    with pytest.raises(ValueError):
        tail_value([], 90)
    with pytest.raises(ValueError):
        tail_rank(10, 100)


def test_cpu_time_scales_with_host_speed_and_waiting_does_not():
    # the host ran at half speed: the reference loop took twice REF_S
    item = Item("a", 0, start=0.0, end=3.0, ok=True, ref=2 * REF_S, wait=1.0)
    assert scaled_s(item) == pytest.approx(1.0 + 2.0 / 2)


def test_input_times_take_each_inputs_median_success():
    def item(key, seconds, ok=True):
        return Item(key, 0, start=0.0, end=seconds, ok=ok, ref=REF_S)

    items = [item("a", 3.0), item("b", 1.0), item("a", 2.0), item("a", 9.0),
             item("b", 0.5, ok=False), item("c", 0.1, ok=False)]
    assert input_times(items) == {"a": 3.0, "b": 1.0}
