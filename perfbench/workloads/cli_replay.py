"""cli-replay: the CLI's commands replayed in-process through ``cli.run``.

Each op is one command, run as ``entpot.cli.run(argv)`` with stdout and
stderr captured: argparse, ket parsing, validation, the analysis and the
output, everything a CLI call does after its imports. The imports themselves
are set-up (``setup_s``), and a traced run also times one cycle of the
commands as fresh ``python -m entpot`` processes (``cli.process_p50_ms``).
One fresh process per op drifted 25-30% in latency from run to run on a
shared host, more than the benchmark's bounds allow.

A cycle holds ``check --state`` for all 11 catalog states, 15 ``analyze
--expr`` with random sparse kets of 2-16 terms, 10 ``analyze --file`` on
.json states, two ``parse --file`` on .ket files, a ``states`` listing, a
``states --state`` emission, and four malformed inputs that must exit 2:
4 of 44 ops, about 10%. The analyses run at n = 4..8, the same number at
each n in every cycle. ``analyze`` is the most common command and among
the slowest: 28 of the 44 ops (the analyses, the parses and the listing)
take 1.5-2 times as long as the other 16, so the median op falls among the
analyses rather than at the edge between two kinds of command. The tail is
p90, among the slowest commands of a cycle: the n = 7 and 8 analyses.
"""
from __future__ import annotations

import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import entpot.cli
import numpy as np

import reference
from harness import program_env
from workloads import Workload

CATALOG = tuple(reference.CATALOG_K)
#: Qubit counts of the ``analyze --expr`` and ``analyze --file`` ops of a cycle.
EXPR_NS = (4, 5, 6, 7, 8) * 3
FILE_NS = (4, 5, 6, 7, 8) * 2
PARSE_OPS = 2
MALFORMED_OPS = 4
#: Printed values carry 12 significant digits; computed ones agree to 1e-10.
PRINT_TOL = 1e-9
VALUE_TOL = 1e-10
AMP_TOL = 1e-12

#: Inputs the CLI must reject with exit code 2: (flag, payload, file suffix).
MALFORMED = (
    ("--expr", "|0120>", None),
    ("--expr", "(|00>+|11>", None),
    ("--expr", "|01>+|001>", None),
    ("--expr", "|00>+|11>", None),            # norm sqrt(2) under the strict policy
    ("--expr", "|00>/0", None),
    ("--file", "|0101> +* |1010>\n", ".ket"),
    ("--file", '{"n": 2, "amplitudes": [[1, 0]]}', ".json"),
    ("--file", '{"n": "2", "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}', ".json"),
    ("--file", '{"n": 2, "amplitudes": [[1, 0], ', ".json"),
)

_TERM = re.compile(r"\(([^()]+?)([+-])([^()+-]+)\*i\)\*\|([01]+)>")
_STATES_LINE = re.compile(r"^(\S+)\s+K = (\S+)\s+pi_ME = (\S+)\s+(\S+)$")


@dataclass
class CliOp:
    kind: str
    argv: list[str]
    expect_code: int
    n: int = 0
    amps: np.ndarray | None = None
    name: str | None = None
    #: (file name, content), written just before the op runs and removed
    #: before the next op's file is written.
    file: tuple[str, str] | None = None


def _coefficient(rng: np.random.Generator, a: complex) -> str:
    """The amplitude as text, in rectangular or (a third of the time) polar form."""
    a = complex(a)
    if rng.random() < 1 / 3:
        return f"sqrt({abs(a) ** 2!r})*exp({float(np.angle(a))!r}*i)"
    sign = "+" if a.imag >= 0 else "-"
    return f"({a.real!r}{sign}{abs(a.imag)!r}*i)"


def sparse_ket(rng: np.random.Generator, n: int, scale: float = 1.0) -> tuple[np.ndarray, str]:
    """A random ket of 2-16 terms; returns its normalized amplitudes and text."""
    terms = int(rng.integers(2, 17))
    idx = np.sort(rng.choice(1 << n, size=terms, replace=False))
    coef = reference.haar_batch(rng, 1, 4)[0][:terms]
    coef /= np.linalg.norm(coef)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[idx] = coef
    text = "+".join(f"{_coefficient(rng, scale * c)}*|{int(i):0{n}b}>"
                    for i, c in zip(idx, coef))
    return amps, text


def _parse_ket_text(text: str, n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=np.complex128)
    for re_part, sign, im_part, bits in _TERM.findall(text):
        im = float(im_part) if sign == "+" else -float(im_part)
        amps[int(bits, 2)] = complex(float(re_part), im)
    return amps


class CliReplay(Workload):
    name = "cli-replay"
    work_unit = "commands"
    tail_percentile = 90.0

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.env = program_env(root)
        self.workdir = root / ".perfbench_out" / f"cli-{os.getpid()}"
        self._written = None

    def setup(self):
        # one untimed cycle, less its file inputs, fills the index-table
        # caches of n = 4..8 and leaves the disk alone
        for op in self.cycle(2**32):
            if op.file is None:
                self.execute(op, self.prepare(op))
        return {}

    def cycle(self, index):
        rng = self.rng(index)
        ops = []
        for name in CATALOG:
            k = reference.CATALOG_K[name]
            ops.append(CliOp("check", ["check", "--state", name, "--format", "json"],
                             0 if k == 0.0 else 1, n=4, name=name))
        for n in EXPR_NS:
            renormalize = bool(rng.random() < 0.5)
            scale = float(rng.uniform(0.5, 3.0)) if renormalize else 1.0
            amps, text = sparse_ket(rng, n, scale)
            ops.append(CliOp("analyze", ["analyze", "--expr", text, "--format", "json"]
                             + (["--renormalize"] if renormalize else []), 0, n=n, amps=amps))
        for j, n in enumerate(FILE_NS):
            amps = reference.haar_batch(rng, 1, n)[0]
            body = json.dumps({"n": n, "amplitudes": [[float(a.real), float(a.imag)]
                                                       for a in amps]})
            fname = f"{index}-state{j}.json"
            ops.append(CliOp("analyze", ["analyze", "--file", str(self.workdir / fname), "--format", "json"], 0,
                             n=n, amps=amps, file=(fname, body)))
        for j in range(PARSE_OPS):
            n = int(rng.integers(4, 9))
            amps, text = sparse_ket(rng, n)
            fname = f"{index}-ket{j}.ket"
            ops.append(CliOp("parse", ["parse", "--file", str(self.workdir / fname), "--format", "json"], 0,
                             n=n, amps=amps, file=(fname, f"# seeded sparse state\n{text}\n")))
        ops.append(CliOp("states", ["states"], 0))
        name = CATALOG[int(rng.integers(len(CATALOG)))]
        ops.append(CliOp("emit", ["states", "--state", name], 0, n=4, name=name))
        for j in rng.choice(len(MALFORMED), size=MALFORMED_OPS, replace=False):
            flag, payload, suffix = MALFORMED[j]
            if suffix is None:
                ops.append(CliOp("malformed", ["analyze", flag, payload], 2))
            else:
                fname = f"{index}-bad{j}{suffix}"
                ops.append(CliOp("malformed", ["analyze", flag, str(self.workdir / fname)], 2,
                                 file=(fname, payload)))
        return [ops[j] for j in rng.permutation(len(ops))]

    def prepare(self, op):
        # Each file is new and short-lived: rewriting one in place made the
        # file system flush it to disk on close, about 40 ms per op.
        if self._written is not None:
            self._written.unlink(missing_ok=True)
            self._written = None
        if op.file is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            self._written = self.workdir / op.file[0]
            self._written.write_text(op.file[1], encoding="utf-8")
        return None

    def execute(self, op, inp):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = entpot.cli.run(op.argv)
        return code, out.getvalue(), err.getvalue()

    def run_process(self, op):
        """The op as a fresh ``python -m entpot`` process, as a CLI user runs it."""
        proc = subprocess.run([sys.executable, "-m", "entpot", *op.argv], env=self.env,
                              cwd=self.root, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def probe(self):
        """Median wall time of one cycle's commands as fresh processes, outputs checked."""
        times = []
        for op in self.cycle(2**32 + 1):
            inp = self.prepare(op)
            t0 = perf_counter()
            out = self.run_process(op)
            times.append(perf_counter() - t0)
            err = self.check(op, inp, out)
            if err:
                raise RuntimeError(f"fresh process {self.describe(op)}: {err}")
        return {"cli.process_p50_ms": statistics.median(times) * 1e3}

    def op_class(self, op):
        return op.kind

    def describe(self, op):
        return "entpot " + " ".join(op.argv)[:160]

    def check(self, op, inp, out):
        code, stdout, stderr = out
        if code != op.expect_code:
            return f"exit code {code}, expected {op.expect_code}: {stderr.strip()[:200]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        if op.kind == "malformed":
            if stdout or not stderr.startswith("entpot:"):
                return "malformed input did not give a one-line error"
            return None
        if op.kind == "check":
            report = json.loads(stdout)
            k = reference.CATALOG_K[op.name]
            if not abs(report["k_total"] - k) <= VALUE_TOL:
                return f"K = {report['k_total']!r}, catalog says {k}"
            if not abs(report["pi_me"] - (k / 2 + 1) / 3) <= VALUE_TOL:
                return f"pi_ME = {report['pi_me']!r} does not match K = {k}"
            if report["verdict"] != ("mmes" if k == 0.0 else "not_mmes"):
                return f"verdict {report['verdict']}"
            return None
        if op.kind == "analyze":
            return self._check_report(json.loads(stdout), op)
        if op.kind == "parse":
            data = json.loads(stdout)
            got = np.array([complex(re_, im) for re_, im in data["amplitudes"]])
            if data["n"] != op.n or got.shape != op.amps.shape:
                return f"parsed n={data['n']} with {got.size} amplitudes"
            off = float(np.max(np.abs(got - op.amps)))
            return None if off <= AMP_TOL else f"amplitudes off by {off:.3g}"
        if op.kind == "states":
            lines = stdout.splitlines()
            if len(lines) != len(CATALOG):
                return f"{len(lines)} catalog lines"
            for line, name in zip(lines, CATALOG):
                m = _STATES_LINE.match(line)
                if m is None or m.group(1) != name:
                    return f"catalog line {line!r}"
                k = reference.CATALOG_K[name]
                if not (abs(float(m.group(2)) - k) <= PRINT_TOL
                        and abs(float(m.group(3)) - (k / 2 + 1) / 3) <= PRINT_TOL):
                    return f"catalog line {line!r}, expected K = {k}"
            return None
        if op.kind == "emit":
            amps = _parse_ket_text(stdout, 4)
            k = 2.0 * (3.0 * float(reference.pi_me(amps, 4)) - 1.0)
            expected = reference.CATALOG_K[op.name]
            if not abs(k - expected) <= PRINT_TOL:
                return f"emitted state has K = {k!r}, catalog says {expected}"
            return None
        return f"unknown op kind {op.kind}"

    @staticmethod
    def _check_report(report, op):
        if report["n"] != op.n:
            return f"report for n={report['n']}"
        ref = reference.purities(op.amps, op.n)
        for subset, value in ref.items():
            got = report["purities"]["".join(map(str, subset))]
            if not abs(got - float(value)) <= VALUE_TOL:
                return f"purity {subset} = {got!r}, reference {float(value)!r}"
        pi = float(np.mean([float(v) for v in ref.values()]))
        if not abs(report["pi_me"] - pi) <= VALUE_TOL:
            return f"pi_ME = {report['pi_me']!r}, reference {pi!r}"
        if op.n == 4 and not abs(report["k_total"] - 2.0 * (3.0 * pi - 1.0)) <= VALUE_TOL:
            return f"K = {report['k_total']!r} but pi_ME = {pi!r}"
        return None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
