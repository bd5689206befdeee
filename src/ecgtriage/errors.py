"""Exception hierarchy shared by all ecgtriage modules.

Three branches matter for the CLI exit codes: configuration problems
(exit 2), malformed or inconsistent input data (exit 3), and inputs that
are formally valid but statistically degenerate (exit 4).
"""


class TriageError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TriageError):
    """Bad run configuration: unknown key, unresolvable path, invalid value."""


class DataFormatError(TriageError):
    """Malformed or internally inconsistent input data."""


class DegenerateStatsError(TriageError):
    """Input is well formed but statistically unusable (empty group, one class, ...)."""


# --- data format / contract violations (exit 3) ---

class MissingLead(DataFormatError):
    def __init__(self, lead):
        self.lead = lead
        super().__init__(f"missing lead {lead}")


class LengthMismatch(DataFormatError):
    pass


class BadHeader(DataFormatError):
    pass


class NonFiniteSample(DataFormatError):
    def __init__(self, lead, row):
        self.lead = lead
        self.row = row
        super().__init__(f"non-finite sample in lead {lead} at row {row}")


class TooFewBeats(DataFormatError):
    pass


class WindowOutOfRange(DataFormatError):
    pass


class SchemaError(DataFormatError):
    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where += f" (row {row}"
            where += f", column {column})" if column is not None else ")"
        super().__init__(message + where)


class DuplicateId(DataFormatError):
    pass


class MissingFeature(DataFormatError):
    pass


class WidthMismatch(DataFormatError):
    pass


# --- degenerate statistics (exit 4) ---

class EmptyWindow(DegenerateStatsError):
    pass


class ZeroVector(DegenerateStatsError):
    def __init__(self, which):
        self.which = which
        super().__init__(f"zero-magnitude vector: {which}")


class EmptyGroup(DegenerateStatsError):
    pass


class DegenerateTable(DegenerateStatsError):
    pass


class UndefinedStatistic(DegenerateStatsError):
    pass


class SingleClass(DegenerateStatsError):
    pass


class EmptyMatrix(DegenerateStatsError):
    pass


class TooSmall(DegenerateStatsError):
    pass


class TooFewPerClass(DegenerateStatsError):
    pass


class NoPositives(DegenerateStatsError):
    pass
