"""Exception types shared across the toolkit."""


class KDetectorError(Exception):
    """Base class for all toolkit errors."""


class MissingSection(KDetectorError):
    """A required dump section (e.g. [CRASH_STACK]) is absent."""


class MalformedHeader(KDetectorError):
    """The dump has no [HEADER] block or lacks a required header field."""


class EmptyStack(KDetectorError):
    """A crash stack yielded no usable frames."""


class MalformedDump(KDetectorError):
    """A dump file is not UTF-8 text or not a usable dump; the message
    names the file."""


class ManifestSyntaxError(KDetectorError):
    """A SET_COMPONENT directive could not be parsed."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        super().__init__(f"{path}:{line}: {message}" if path else message)
        self.path = path
        self.line = line


class MalformedMap(KDetectorError):
    """A component-map line is not ``function<TAB>component``."""


class MalformedFile(KDetectorError):
    """A params, stop-list or pairs file has a line that cannot be read or
    lacks a field; the message names the file and the line."""


class EmptyCorpus(KDetectorError):
    """An operation that needs at least one dump received none."""


class ComponentMismatch(KDetectorError):
    """Two occurrences of different components were compared."""


class DegenerateSet(KDetectorError):
    """A labeled set is missing one of the two classes."""


class DuplicateDumpId(KDetectorError):
    """A dump with this id is already in the store."""


class DuplicateBugId(KDetectorError):
    """A record with this bug id is already in the store."""


class StoreWriteError(KDetectorError):
    """The failure store could not be written."""


class MalformedRecord(KDetectorError):
    """A failure-store record line is not a valid record."""


class MissingStore(KDetectorError):
    """A read-only open found no failure store at the path."""


class MissingSequence(KDetectorError):
    """The store holds no component sequence for a dump, or holds its
    sequences only in the v1 layout, which is no longer read."""


class UnstorableSequence(KDetectorError):
    """A component sequence cannot be written to the sequence log: it has no
    occurrences, an occurrence has no functions, or a name holds a tab or a
    newline."""
