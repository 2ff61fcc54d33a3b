"""Exception taxonomy shared across the package: one class per CLI exit code.

A class says only which exit code an error maps to; its message says what
went wrong. ValidationError (exit 2) covers bad inputs detected before or
while a run starts: schema mismatches, cyclic orderings, cap violations,
single-class training data. SchemaError is the ValidationError for data or a
model file that does not match its declared schema. EstimatorError (exit 3)
covers failures of the estimation machinery itself, such as an exhausted
rejection-sampling budget.
"""


class AsymshapError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(AsymshapError):
    """Invalid input: schema, config, or argument checks failed."""


class SchemaError(ValidationError):
    """Data does not match its declared schema."""


class EstimatorError(AsymshapError):
    """An estimator could not produce a value."""
