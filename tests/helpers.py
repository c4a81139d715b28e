"""Test-local helpers shared by several test modules.

GENERATORS and generic_product are the yardstick for word evaluation: the
generator matrices from hermitian's own constructors, multiplied through
GroupMatrix.__mul__ and __pow__, so they share no code with evaluate's
column passes.  fail_third_call injects a failure into the third call of
a package function, for the tests of what a failed decomposition keeps.
"""

import importlib

from picard31.eisenstein import ONE, ZERO
from picard31.errors import InternalError
from picard31.finite_unitary import U1, U2
from picard31.hermitian import (inversion, rotation_matrix,
                                translation_matrix, unit_correction)

GENERATORS = {"N": translation_matrix((ONE, ZERO), 1),
              "A": rotation_matrix(U1),
              "B": rotation_matrix(U2),
              "R": inversion()}


def generic_product(word, lam=ONE):
    """unit_correction(lam) times the generator powers of word, in order."""
    product = unit_correction(lam)
    for gen, e in word:
        product = product * GENERATORS[gen] ** e
    return product


def fail_third_call(monkeypatch, target, message):
    """Patch the function target ("module.name") so that its third call
    raises InternalError(message) and the others run it unchanged; returns
    the list of the first arguments of its calls, the failing one included."""
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    calls = []

    def failing(first, *rest):
        calls.append(first)
        if len(calls) == 3:
            raise InternalError(message)
        return real(first, *rest)

    monkeypatch.setattr(target, failing)
    return calls
