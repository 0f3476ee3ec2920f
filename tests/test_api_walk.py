"""Every public callable ends in a result or a refusal with a message, on hostile arguments.

Each callable of ``ccnr.__all__`` is called with the values of ``VALUES`` in
its required positional arguments: every argument holds one value, except one
that holds another, over all pairs of values.  Each keyword number that has a
default (``seed`` and ``rank``) is then given each value, with valid required
arguments.  A call must return, or raise ``ValueError`` or ``TypeError`` with
a non-empty message from a ``raise`` statement of the package itself (the
last entry of the traceback), by one of its own rules: a refusal raised in
numpy's or Python's code, which names no argument of the package, counts as a
fault, even when a line of the package called that code, and so does a
warning.  The walk runs in one child process under a 1 GiB address-space
limit, so a call that tried a runaway allocation ends there in a
``MemoryError``, a fault, and not in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ccnr

_WALK = """
import inspect, json, os, resource, sys, traceback, warnings
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
import ccnr
PACKAGE = os.path.dirname(ccnr.__file__) + os.sep
from ccnr import DensityOperator, GammaValue, max_entangled, werner_stack
from ccnr.linalg import _numbers

VALUES = [
    None, "x", True, [1, 2], [[0.5], 0.5], np.nan, np.inf, -np.inf, 0, -3, 10**6, 10**400,
    np.array(3), np.complex128(0.5 + 1j),
    np.tile(np.eye(4) / 4, (2, 1, 1)), GammaValue(1.0, "werner"), max_entangled(2),
    DensityOperator(np.eye(4) / 4, 2, 2), DensityOperator(werner_stack(2, [0.1, 0.5]), 2, 2),
]


def _probe(value):
    # The walk's self-test: an empty refusal, a refusal raised outside the package, one
    # raised by numpy on a line of the package, and an AttributeError for most values.
    if value is None:
        raise TypeError()
    if isinstance(value, str):
        return np.zeros(2).reshape(3)
    if value is np.nan:
        return _numbers(value, int)  # np.asarray(nan, int) refuses the cast
    return value.dim_a


def _arity(f):
    return sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               for p in inspect.signature(f).parameters.values())


walked, faults = {}, {}


def _call(name, pick, f, args, kwargs):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raiser = traceback.extract_tb(exc.__traceback__)[-1]
        if not str(exc):
            faults.setdefault(name, []).append(f"{pick}: empty {type(exc).__name__}")
        elif not raiser.filename.startswith(PACKAGE):
            faults.setdefault(name, []).append(f"{pick}: raised in {raiser.filename}: {exc}")
        elif not raiser.line.startswith("raise"):
            faults.setdefault(name, []).append(
                f"{pick}: raised by {raiser.line!r} in {raiser.filename}: {exc}")
    except Exception as exc:
        faults.setdefault(name, []).append(f"{pick}: {type(exc).__name__}: {exc}")


callables = {name: getattr(ccnr, name) for name in ccnr.__all__}
for name, f in {**callables, "_probe": _probe}.items():
    if not callable(f):
        continue
    k = _arity(f)
    picks = {tuple(v if j == i else w for j in range(k)) for i in range(k)
             for v in range(len(VALUES)) for w in range(len(VALUES))} or {()}
    walked[name] = len(picks)
    for pick in sorted(picks):
        _call(name, pick, f, [VALUES[i] for i in pick], {})

# The keyword numbers, each walked with these required arguments; a callable that gains
# one and is missing here ends the walk in a KeyError.
KEYWORD_NUMBERS = {"seed", "rank"}
REQUIRED = {"random_density": (2, 2), "random_pure": (2, 2), "random_unitary": (2,)}
for name, f in callables.items():
    keywords = inspect.signature(f).parameters if callable(f) else {}
    for keyword in sorted(KEYWORD_NUMBERS.intersection(keywords)):
        label = f"{name}({keyword}=)"
        walked[label] = len(VALUES)
        for v, value in enumerate(VALUES):
            _call(label, (v,), f, REQUIRED[name], {keyword: value})
print(json.dumps({"walked": walked, "faults": faults, "values": len(VALUES)}))
"""


def _walk() -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(ccnr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _WALK], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_public_callable_returns_or_refuses_hostile_arguments_with_a_message():
    walk = _walk()
    probe = walk["faults"].pop("_probe")
    assert walk["faults"] == {}
    # Every callable was walked, with every value in every required argument.
    exported = {name for name in ccnr.__all__ if callable(getattr(ccnr, name))}
    keywords = {f"{name}({keyword}=)" for name, names in [
        ("random_density", ["rank", "seed"]), ("random_pure", ["seed"]),
        ("random_unitary", ["seed"])] for keyword in names}
    assert set(walk["walked"]) == exported | {"_probe"} | keywords
    assert all(walk["walked"][label] == 19 for label in keywords)
    assert walk["walked"]["_probe"] == walk["values"] == 19
    assert walk["walked"]["realign_matrix"] == 19 + 3 * 19 * 18
    # The probe's faults show that the walk sees each kind of fault.
    assert "(0,): empty TypeError" in probe
    assert any("raised in" in fault and "cannot reshape" in fault for fault in probe)
    assert any("raised by" in fault and "NaN to integer" in fault for fault in probe)
    assert any("AttributeError" in fault for fault in probe)
