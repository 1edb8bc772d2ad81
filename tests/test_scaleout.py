"""The shared fan-out: inline or pooled, each call's result or error
in completion order, and only ``Exception`` caught."""

import pytest

from repro.scaleout import fan_out


def divide(a, b):
    return a / b


class Stop(BaseException):
    """Stands in for a ``KeyboardInterrupt`` or a harness's stop
    signal: never a call's failure."""


def stop(_):
    raise Stop


@pytest.mark.parametrize("workers", [1, 2])
def test_each_call_yields_its_result_or_error(workers):
    calls = [(6, 3), (1, 0), (9, 3)]
    out = {args: (result, error)
           for args, result, error in fan_out(divide, calls, workers)}
    assert set(out) == set(calls)
    assert out[(6, 3)] == (2.0, None) and out[(9, 3)] == (3.0, None)
    result, error = out[(1, 0)]
    assert result is None and isinstance(error, ZeroDivisionError)


def test_inline_runs_in_call_order():
    calls = [(x, 1) for x in range(5)]
    assert [args for args, _, _ in fan_out(divide, calls, 1)] == calls


def test_a_base_exception_stops_the_fan_out():
    with pytest.raises(Stop):
        list(fan_out(stop, [(0,), (1,)], 1))


def test_no_calls_yield_nothing_at_any_width():
    assert list(fan_out(divide, [], 4)) == []
