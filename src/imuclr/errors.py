"""Exception types shared across the pipeline.

Every error raised on bad user input derives from ValueError so callers can
catch broadly; the specific classes exist because file readers and numerical
kernels have distinct failure contracts worth testing.
"""


class PipelineError(ValueError):
    """Base class for all errors raised by this package."""


class ShapeMismatch(PipelineError):
    pass


class DimMismatch(PipelineError):
    pass


class NonFinite(PipelineError):
    pass


class NonUnitQuaternion(PipelineError):
    pass


class TooShort(PipelineError):
    pass


class NegativeSigma(PipelineError):
    pass


class BadRate(PipelineError):
    pass


class BadRange(PipelineError):
    pass


class BadStrategy(PipelineError):
    pass


class EmptyText(PipelineError):
    pass


class EmptyDataset(PipelineError):
    pass


class UnknownLocation(PipelineError):
    pass


class DuplicateJoint(PipelineError):
    pass


class ParseError(PipelineError):
    """Malformed file content; message carries the path and line number."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc = f"{loc}{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line


class BadQuaternion(ParseError):
    pass


class DuplicateId(ParseError):
    pass


class CorruptCheckpoint(PipelineError):
    pass


class VersionMismatch(PipelineError):
    pass
