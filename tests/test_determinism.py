"""Cross-process determinism of seeded results.

Python randomizes ``str``/``bytes`` hashing per process
(``PYTHONHASHSEED``), so a builtin ``hash()`` that feeds a random
generator makes seeded results differ between runs of the same command.
Three guards: the Table II / Fig. 8 alpha sweep and a shortened first
unit of every library spec must print identical outcomes under two hash
seeds, and no ``hash()`` call anywhere in the package may reach a
generator constructor or seeding call.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: Callables whose arguments seed a random stream.
RNG_SINKS = frozenset(
    {"default_rng", "SeedSequence", "Generator", "RandomState", "Random", "seed"}
)

_SWEEP_SCRIPT = """
import dataclasses, json
from repro.experiments.alpha_sweep import sweep_scenario
from repro.workloads.scenarios import ScenarioParams

outcomes = sweep_scenario(
    1000,
    params=ScenarioParams(num_user_sites=24, num_users=16),
    hops_per_session=6,
)
print(json.dumps([dataclasses.asdict(o) for o in outcomes]))
"""


#: Every library spec's first expanded unit, cut to at most 12 s of
#: simulated time, as ``{spec: sha256 of its run_record}``.
_LIBRARY_SCRIPT = """
import hashlib, json
from repro.fleet.compile import compile_spec, run_record
from repro.fleet.library import library_spec_names, load_library_spec
from repro.fleet.orchestrator import expand_matrix

digests = {}
for name in library_spec_names():
    spec = expand_matrix(load_library_spec(name))[0].spec
    duration = min(spec.simulation.duration_s, 12.0)
    spec = spec.with_overrides({"simulation.duration_s": duration})
    record = run_record(compile_spec(spec))
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    digests[name] = hashlib.sha256(payload).hexdigest()
print(json.dumps(digests, sort_keys=True))
"""


def _script_output(script: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT.parent), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return proc.stdout


def test_alpha_sweep_identical_under_two_hash_seeds():
    first = _script_output(_SWEEP_SCRIPT, "1")
    assert first.strip(), "sweep printed nothing"
    assert first == _script_output(_SWEEP_SCRIPT, "2")


def test_library_specs_identical_under_two_hash_seeds():
    """Every shipped spec's records are independent of string hashing
    (the simulator's freeze order once came from dict iteration)."""
    from repro.fleet.library import library_spec_names

    first = json.loads(_script_output(_LIBRARY_SCRIPT, "1"))
    assert sorted(first) == sorted(library_spec_names())
    assert first == json.loads(_script_output(_LIBRARY_SCRIPT, "2"))


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_builtin_hash(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    )


def _hash_reaches_rng(scope: ast.AST) -> list[int]:
    """Line numbers in ``scope`` where a ``hash()`` value flows into an
    rng sink, directly or through a local name assigned from it."""
    tainted: set[str] = set()
    changed = True
    while changed:  # propagate through chains of assignments
        changed = False
        for node in ast.walk(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is None:
                    continue
                dirty = any(
                    _is_builtin_hash(sub)
                    or (isinstance(sub, ast.Name) and sub.id in tainted)
                    for sub in ast.walk(value)
                )
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if (
                            dirty
                            and isinstance(name, ast.Name)
                            and name.id not in tainted
                        ):
                            tainted.add(name.id)
                            changed = True
    hits = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and _call_name(node) in RNG_SINKS:
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                if any(
                    _is_builtin_hash(sub)
                    or (isinstance(sub, ast.Name) and sub.id in tainted)
                    for sub in ast.walk(argument)
                ):
                    hits.append(node.lineno)
    return hits


def test_scanner_flags_direct_and_indirect_flows():
    direct = ast.parse("rng = np.random.default_rng((seed, hash(name)))")
    indirect = ast.parse(
        "def f(name):\n"
        "    key = hash(name) & 0xFFFF\n"
        "    salt = key + 1\n"
        "    return np.random.default_rng([salt])\n"
    )
    harmless = ast.parse("def __hash__(self):\n    return hash(self.key())\n")
    assert _hash_reaches_rng(direct) == [1]
    assert _hash_reaches_rng(indirect) == [4]
    assert _hash_reaches_rng(harmless) == []


def test_no_builtin_hash_feeds_an_rng():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [tree] + [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            offenders.extend(
                f"{path.relative_to(PACKAGE_ROOT)}:{line}"
                for line in _hash_reaches_rng(scope)
            )
    assert not offenders, f"builtin hash() seeds an rng at {sorted(set(offenders))}"
