"""Exception hierarchy for the CI-Rank reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while the library
itself raises the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema definition is invalid (duplicate tables, bad references...)."""


class IntegrityError(ReproError):
    """A tuple violates a schema constraint (missing PK, dangling FK...)."""


class GraphError(ReproError):
    """The data graph is malformed or an operation on it is invalid."""


class InvalidTreeError(ReproError):
    """A joined tuple tree is structurally invalid (cycle, disconnected...)."""


class NotReducedError(InvalidTreeError):
    """A tree is connected but not reduced with respect to the query."""


class SearchError(ReproError):
    """A search algorithm was configured or invoked incorrectly."""


class IndexError_(ReproError):
    """An index lookup failed or the index is inconsistent.

    Named with a trailing underscore to avoid shadowing the built-in
    ``IndexError``; exported as ``IndexingError`` from the package root.
    """


IndexingError = IndexError_


class StaleIndexError(IndexError_):
    """A persisted index no longer matches the live graph or parameters.

    Raised by :mod:`repro.storage.index_store` when a manifest's graph
    fingerprint or dampening fingerprint disagrees with the deployment
    asking to load it; callers typically catch this and rebuild.
    """


class DatasetError(ReproError):
    """A synthetic dataset generator received inconsistent parameters."""


class ServingError(ReproError):
    """The serving front end was configured or driven incorrectly."""


class BadRequestError(ServingError):
    """A client request is malformed (unparseable, missing fields...).

    The HTTP front end maps this to a 400 response; the daemon raises it
    before the request enters the dedup/execution pipeline, so rejected
    requests never disturb the serving counters' invariants.
    """


class EvaluationError(ReproError):
    """An evaluation harness was given inconsistent inputs."""
