"""Operation and failure accounting shared by the workloads."""

from __future__ import annotations

import hashlib


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Counts operations and the ones that failed, keeping every error.

    An operation is one call into the program.  ``expect`` failures mark
    the current operation failed (once) and always make the run incorrect,
    including checks that belong to no single operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._current_ok = True

    def begin(self) -> None:
        self.attempted += 1
        self._current_ok = True

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
            if self.attempted and self._current_ok:
                self._current_ok = False
                self.failed += 1
        return bool(ok)

    def op(self, ok: bool, message: str) -> bool:
        """Start an operation whose outcome is already known."""
        self.begin()
        return self.expect(ok, message)

    @property
    def correct(self) -> bool:
        return not self.errors
