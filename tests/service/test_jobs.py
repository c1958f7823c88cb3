"""Tests for request validation and the worker-side task."""

import pytest

from repro.service.jobs import (CompileRequest, ServiceError,
                                execute_request, request_key)

from ..conftest import sequential_ifs

GOOD = """
program demo
  input integer :: n = 20
  integer :: i
  real :: a(50)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(n)
end program
"""

TRAPPING = """
program demo
  input integer :: n = 60
  integer :: i
  real :: a(50)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(1)
end program
"""


class TestValidation:
    def test_minimal_run_request(self):
        request = CompileRequest.from_payload(
            {"action": "run", "source": GOOD})
        assert request.scheme == "LLS"
        assert request.engine == "interp"

    def test_not_an_object(self):
        with pytest.raises(ServiceError) as info:
            CompileRequest.from_payload([1, 2])
        assert info.value.status == 400

    def test_unknown_action(self):
        with pytest.raises(ServiceError):
            CompileRequest.from_payload({"action": "pwn", "source": GOOD})

    def test_missing_source(self):
        with pytest.raises(ServiceError):
            CompileRequest.from_payload({"action": "run", "source": "  "})

    def test_bad_scheme(self):
        with pytest.raises(ServiceError):
            CompileRequest.from_payload(
                {"action": "run", "source": GOOD, "scheme": "WAT"})

    def test_bad_inputs(self):
        with pytest.raises(ServiceError):
            CompileRequest.from_payload(
                {"action": "run", "source": GOOD, "inputs": {"n": "x"}})
        with pytest.raises(ServiceError):
            CompileRequest.from_payload(
                {"action": "run", "source": GOOD, "inputs": {"n": True}})

    def test_bad_flag_type(self):
        with pytest.raises(ServiceError):
            CompileRequest.from_payload(
                {"action": "run", "source": GOOD, "optimize": "yes"})

    def test_oversized_source_is_413(self):
        with pytest.raises(ServiceError) as info:
            CompileRequest.from_payload(
                {"action": "run", "source": "x" * (2 << 20)})
        assert info.value.status == 413

    def test_tables_needs_no_source(self):
        request = CompileRequest.from_payload(
            {"action": "tables", "small": True})
        assert request.action == "tables"


class TestRequestKey:
    def test_deterministic(self):
        a = CompileRequest.from_payload({"action": "run", "source": GOOD})
        b = CompileRequest.from_payload({"action": "run", "source": GOOD})
        assert request_key(a) == request_key(b)

    def test_differs_by_config(self):
        a = CompileRequest.from_payload({"action": "run", "source": GOOD})
        b = CompileRequest.from_payload(
            {"action": "run", "source": GOOD, "scheme": "NI"})
        assert request_key(a) != request_key(b)

    def test_differs_by_inputs(self):
        a = CompileRequest.from_payload({"action": "run", "source": GOOD})
        b = CompileRequest.from_payload(
            {"action": "run", "source": GOOD, "inputs": {"n": 5}})
        assert request_key(a) != request_key(b)


class TestExecuteRequest:
    def test_run_success(self):
        status, body = execute_request(
            {"action": "run", "source": GOOD, "inputs": {"n": 10}})
        assert status == 200
        assert body["schema"] == "repro.run.v1"
        assert body["ok"] is True
        assert body["output"] == [10.0]
        assert body["counters"]["checks"] >= 0
        assert set(body["phases"]) == {"parse", "optimize", "execute"}

    def test_run_trap_is_still_200(self):
        status, body = execute_request(
            {"action": "run", "source": TRAPPING})
        assert status == 200
        assert body["ok"] is False
        assert "range check failed" in body["trap"]

    def test_compiled_engine(self):
        status, body = execute_request(
            {"action": "run", "source": GOOD, "engine": "compiled",
             "inputs": {"n": 10}})
        assert status == 200
        assert body["output"] == [10.0]

    def test_long_cfg_is_served(self):
        # IR cloning must not recurse once per block
        source = sequential_ifs(300)
        for engine in ("interp", "compiled", "specialized"):
            status, reply = execute_request(
                {"action": "run", "source": source, "engine": engine})
            assert status == 200, reply
            assert reply["output"] == [sum(range(150))]

    def test_dump(self):
        status, body = execute_request({"action": "dump", "source": GOOD})
        assert status == 200
        assert "program demo" in body["ir"]

    def test_parse_error_is_422(self):
        status, body = execute_request(
            {"action": "run", "source": "program p\nif then\nend program"})
        assert status == 422
        assert body["schema"] == "repro.service.error.v1"
        assert body["error_type"] == "ParseError"

    def test_validation_error_is_400(self):
        status, body = execute_request({"action": "run", "source": ""})
        assert status == 400

    def test_interp_and_cli_agree(self, tmp_path):
        """The service's run response and `repro run --json` carry the
        same numbers for the same program and config."""
        import json

        from repro.cli import main

        path = tmp_path / "demo.f"
        path.write_text(GOOD)
        status, body = execute_request(
            {"action": "run", "source": GOOD, "inputs": {"n": 10}})

        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["run", str(path), "--input", "n=10", "--json"])
        assert code == 0
        cli_doc = json.loads(buffer.getvalue())
        assert cli_doc["schema"] == body["schema"]
        assert cli_doc["output"] == body["output"]
        assert cli_doc["counters"] == body["counters"]
        assert cli_doc["optimizer"] == body["optimizer"]
        assert set(cli_doc) == set(body)


class TestStepLimitParity:
    """Both engines respect the service fuel budget (the compiled path
    used to run unbounded and hold a worker until the 504 deadline)."""

    RUNAWAY = """
program demo
  input integer :: n = 100000
  integer :: i, s
  s = 0
  do i = 1, n
    s = s + i
  end do
  print s
end program
"""

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_runaway_program_is_a_422_on_both_engines(self, engine,
                                                      monkeypatch):
        import repro.service.jobs as jobs

        monkeypatch.setattr(jobs, "MAX_STEPS", 1000)
        status, body = execute_request(
            {"action": "run", "source": self.RUNAWAY, "engine": engine})
        assert status == 422
        assert body["error_type"] == "StepLimitError"
        assert "1000 steps" in body["error"]
