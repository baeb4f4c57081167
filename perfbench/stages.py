"""Run CLI subcommands in-process and record each as one attempted operation."""

from __future__ import annotations

import io
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter


@dataclass
class StageResult:
    name: str
    seconds: float
    stdout: str
    error: str | None  # None when the subcommand exited 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def field(self, key: str) -> str:
        """Value of a `key\\tvalue` line of the subcommand's output."""
        for line in self.stdout.splitlines():
            name, _, value = line.partition("\t")
            if name == key:
                return value
        raise ValueError(f"{self.name}: no {key!r} line in its output")


class StageRunner:
    """Calls `avsearch.cli.main`; with a tracer, each call is a `cli.<name>` span."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def stage(self, name: str, argv: list[str]) -> StageResult:
        out = io.StringIO()
        err = io.StringIO()
        span = self.tracer.span(f"cli.{name}") if self.tracer else nullcontext()
        self.attempted += 1
        error = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), span:
                code = self.cli.main([name, *map(str, argv)])
        except (Exception, SystemExit):
            code = None
            error = traceback.format_exc()
        seconds = perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
        result = StageResult(name, seconds, out.getvalue(), error)
        if error is not None:
            self.fail(f"{name}: {error}")
        return result
