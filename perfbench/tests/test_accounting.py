"""Which service and engine results the benchmark counts as failed."""

from benchstats import Tally
from reference import Expected, Optimized, check_run
from serve import Serve, _Request

CLEAN = {"instructions": 10, "checks": 2, "guarded_checks": 0,
         "guard_skipped": 0, "spec_guards": 0, "spec_misses": 0,
         "traps": 0}


def test_clean_run_must_match_output_and_counters():
    naive = Expected([1, 2], False)
    optimized = Optimized([1, 2], False, CLEAN)
    assert check_run(naive, optimized, [1, 2], False, CLEAN) == ""
    assert "output" in check_run(naive, optimized, [1, 3], False, CLEAN)
    assert "counters" in check_run(naive, optimized, [1, 2], False,
                                   dict(CLEAN, checks=3))
    assert "trap" in check_run(naive, optimized, [1, 2], True, CLEAN)


def test_expected_trap_is_correct_even_when_it_fires_earlier():
    naive = Expected([1, 2, 3], True)
    hoisted = Optimized([1], True, dict(CLEAN, traps=1))
    # back-ends charge a block's checks on entry: counters may differ
    assert check_run(naive, hoisted, [1], True,
                     dict(CLEAN, checks=9, traps=1)) == ""
    assert check_run(naive, hoisted, [1, 2], True, CLEAN) != ""
    assert check_run(naive, hoisted, [1], False, CLEAN) != ""


def _serve():
    serve = Serve(seed=1, root=".", in_process=True)
    serve.expected = {"p": Expected([5], False), "t": Expected([], True)}
    serve.optimized = {("p", "LLSPRX"): Optimized([5], False, CLEAN),
                       ("t", "LLSPRX"): Optimized([], True,
                                                  dict(CLEAN, traps=1))}
    return serve


def test_service_accounting_of_traps_and_expected_4xx():
    serve = _serve()
    tally = Tally()
    ok_run = _Request({}, "warm", ("p", "LLSPRX"))
    trap_run = _Request({}, "cold", ("t", "LLSPRX"))
    bad_scheme = _Request({}, "malformed", None, 400)
    cases = [
        (ok_run, 200, {"output": [5], "trap": None, "counters": CLEAN}),
        (trap_run, 200, {"output": [], "trap": "range check failed",
                         "counters": dict(CLEAN, traps=1)}),
        (bad_scheme, 400, {"error": "unknown scheme"}),
        # failures: a 4xx nobody expected, an expected 4xx that passed,
        # a missing trap, a server error and a transport error
        (ok_run, 422, {"error": "compile error"}),
        (bad_scheme, 200, {"output": []}),
        (trap_run, 200, {"output": [], "trap": None, "counters": CLEAN}),
        (ok_run, 500, {"error": "boom"}),
        (ok_run, "transport error: reset", None),
    ]
    for index, (request, status, body) in enumerate(cases):
        tally.record(index, serve.judge(request, status, body), 0.01)
    assert tally.attempted == 8
    assert tally.failed == 5
    assert tally.failed_share == 5 / 8
    assert sorted(tally.by_class) == ["cold", "malformed", "warm"]
