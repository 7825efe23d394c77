"""Benchmark orchestration and multi-criteria scoring for Solidity
vulnerability analyzers.

Subsystems: ``taxonomy`` (classes, tools, version scale), ``corpus``
(loading, annotation parsing, curation), ``runner`` (scan campaigns),
``metrics`` (confusion metrics and quality indicators), ``mcdm`` (entropy
and AHP weighting plus the weighted overall score), ``report`` (tables and
time series), ``cli`` (the ``scbench`` command). Every command loads this
package, so it also holds what every layer shares: the value-type base
:class:`Frozen` and the loggers that import ``logging`` at their first
message (:class:`Logger`).
"""

__version__ = "0.1.0"

# time-series period widths over the metadata timestamps: the choices of
# ``report --bucket`` and of ``report.time_series``
BUCKETS = ("month", "quarter", "year")

# The ``logging.basicConfig`` level that ``cli.main`` asks for ("WARNING",
# or "DEBUG" with ``-v``), applied at the first message of a
# :class:`Logger`; None once applied, and outside the command line.
LOG_LEVEL = None


class Logger:
    """``logging.getLogger(name)``, imported at its first message, so that
    a command that logs nothing never loads ``logging``: each method
    (``error``, ``warning``, ``exception``...) is the real logger's, looked
    up after the ``basicConfig`` that :data:`LOG_LEVEL` asks for."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, method: str):
        global LOG_LEVEL
        import logging

        if LOG_LEVEL is not None:
            logging.basicConfig(level=LOG_LEVEL, format="%(levelname)s %(name)s: %(message)s")
            LOG_LEVEL = None
        return getattr(logging.getLogger(self.name), method)


class Frozen:
    """Base of a value type that defines its own ``__iter__`` or ``__len__``,
    and so must not be a tuple: its ``__slots__``, set by ``__init__``
    through ``object.__setattr__``, are read-only fields, which equality
    (within the class), hash, repr and copy go by."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return (self._astuple() == other._astuple() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._astuple())

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), self._astuple()
