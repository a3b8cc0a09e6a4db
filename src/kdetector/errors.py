"""Exception types shared across the toolkit, and the one place that reads
an input file and splits it into numbered lines."""


class KDetectorError(Exception):
    """Base class for all toolkit errors."""


class MissingSection(KDetectorError):
    """A required dump section (e.g. [CRASH_STACK]) is absent."""


class MalformedHeader(KDetectorError):
    """The dump has no [HEADER] block or lacks a required header field."""


class EmptyStack(KDetectorError):
    """A crash stack yielded no usable frames."""


class MalformedDump(KDetectorError):
    """A dump file is not a usable dump; the message names the file."""


class ManifestSyntaxError(KDetectorError):
    """A SET_COMPONENT directive could not be parsed."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        super().__init__(f"{path}:{line}: {message}" if path else message)
        self.path = path
        self.line = line


class MalformedMap(KDetectorError):
    """A component-map line is not ``function<TAB>component``."""


class MalformedFile(KDetectorError):
    """An input file is not UTF-8 text, or a params, stop-list or pairs file
    has a line that cannot be read or lacks a field; the message names the
    file and, for a line, its number."""


class EmptyCorpus(KDetectorError):
    """An operation that needs at least one dump received none."""


class TooFewStacks(KDetectorError):
    """A synthetic corpus spec's pools yield too few distinct base stacks
    for its groups."""


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


def read_text(path) -> str:
    """The file's text, decoded as UTF-8 whatever the locale, with every
    line break kept as it is; text that is not UTF-8 is a ``MalformedFile``
    naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: {exc}") from None


def parse_lines(text: str, path: str, parse, error: type = MalformedFile) -> list:
    """``(number, parse(line))`` for each line of ``text``, split at ``\\n``
    only and numbered from 1, leaving out the lines ``parse`` returns None
    for. A ``ValueError`` that ``parse`` raises becomes ``error`` naming
    ``path:number``."""
    parsed = []
    for number, line in enumerate(text.split("\n"), start=1):
        try:
            value = parse(line)
        except ValueError as exc:
            raise error(f"{path}:{number}: {exc}") from None
        if value is not None:
            parsed.append((number, value))
    return parsed
