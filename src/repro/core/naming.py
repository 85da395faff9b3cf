"""The file name a module's text is compiled under.

Apart from the rest of :mod:`repro.core` because both sides of a remote
placement need it: the transformer compiles a prepared text under it in
the bus process, and a pipe worker or TCP daemon compiles the
already-prepared text it receives under the same one — without loading
the pipeline (``repro.core`` resolves its exports on first use, so
importing this module imports nothing else).
"""

from __future__ import annotations


def module_filename(module_name: str) -> str:
    """``<module NAME>`` — what tracebacks out of the module's code say.

    It belongs to the text, not to an instance, so it stays right when a
    clone takes over the replaced module's name.
    """
    return f"<module {module_name}>"
