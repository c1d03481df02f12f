"""Trajectory dataset I/O, min-max normalization, block Hankel matrices,
and JSON input: one strict reader for config, scenario and model files,
and one key-and-type check for configs and scenarios.

Datasets are plain CSV with a header row naming channels by role:
``t,u:<name>,...,y:<name>,...``.  The time column is optional; when absent
the sample period comes from the caller (default 30 Hz).

Parsing and formatting CSV numbers is bound by the interpreter (``strtod``
and ``repr`` under the GIL), so a long table is cut into one part per
usable CPU and each part past the first runs in a forked child
(``_in_parts``).  A CSV file is read once, and a part of it parses a
slice of those bytes; a part of a table formats its own array rows, and
a part of a sweep's run tables formats and writes its own files.
The parts give the same array or bytes as one serial pass; any failure
redoes the whole job serially, so error messages are the serial ones too.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import warnings
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

DEFAULT_DT = 1.0 / 30.0


def as_series(x) -> np.ndarray:
    """A time series as an (N, m) float array of N samples of m channels;
    a 1-D array is N samples of one channel."""
    x = np.asarray(x, dtype=float)
    return x.reshape(-1, 1) if x.ndim < 2 else x


def is_kind(value, kind: str) -> bool:
    """Whether a JSON value is of the type named by ``kind`` (one member
    of a type annotation): bool is not an int; an in-range int is a float."""
    if isinstance(value, bool):
        return kind == "bool"
    return {"None": value is None, "str": isinstance(value, str),
            "list": isinstance(value, list), "int": isinstance(value, int),
            "float": isinstance(value, float) or isinstance(value, int)
            and abs(value) <= sys.float_info.max}.get(kind, False)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"number {text} beyond the float range")
    return value


def read_json(path, what: str):
    """Parse a strict JSON file, without the NaN and Infinity tokens or a
    float literal beyond the float range; an unreadable file or bad JSON
    is a ConfigError naming ``what`` and the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, parse_constant=_reject_constant,
                             parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, a constant, not UTF-8
        raise ConfigError(f"bad JSON in {what} {path}: {exc}") from exc


def check_keys(doc, kinds: dict[str, str], what: str) -> dict:
    """Return ``doc`` once it is a JSON object whose keys are all in
    ``kinds`` (key -> type annotation, such as "int | None") and whose
    values are of their key's type; otherwise raise a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in doc.items():
        types = kinds[key].split(" | ")
        if not any(is_kind(value, t) for t in types):
            raise ConfigError(f"{what} key {key!r} must be "
                              f"{' or '.join(types)}, got {value!r}")
    return doc


@dataclass(frozen=True)
class TrajectoryDataset:
    """Time-aligned master-side inputs and slave-side outputs.

    inputs  : (N, m_in) array
    outputs : (N, m_out) array
    dt      : sample period in seconds
    """

    inputs: np.ndarray
    outputs: np.ndarray
    dt: float = DEFAULT_DT
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()

    def __post_init__(self):
        inputs = as_series(self.inputs)
        outputs = as_series(self.outputs)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        if inputs.shape[0] != outputs.shape[0]:
            raise DataError(
                f"inputs have {inputs.shape[0]} rows but outputs have "
                f"{outputs.shape[0]}"
            )
        if inputs.shape[0] < 2:
            raise DataError("dataset needs at least 2 rows")
        if not 0 < self.dt < np.inf:
            raise DataError(f"dt must be positive and finite, got {self.dt}")
        for name, arr in (("inputs", inputs), ("outputs", outputs)):
            if not np.all(np.isfinite(arr)):
                r, c = np.argwhere(~np.isfinite(arr))[0]
                raise DataError(f"non-finite value in {name} at row {r}, column {c}")
        if not self.input_names:
            object.__setattr__(
                self, "input_names",
                tuple(f"u{i}" for i in range(inputs.shape[1])))
        if not self.output_names:
            object.__setattr__(
                self, "output_names",
                tuple(f"y{i}" for i in range(outputs.shape[1])))
        if len(self.input_names) != inputs.shape[1]:
            raise DataError("input_names length does not match input columns")
        if len(self.output_names) != outputs.shape[1]:
            raise DataError("output_names length does not match output columns")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def m_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def m_out(self) -> int:
        return self.outputs.shape[1]


@dataclass(frozen=True)
class ChannelScaling:
    """Per-channel min/max statistics for one role (input or output); the
    channel names stay with the dataset.  ``names``, when given, only name
    a channel that cannot be scaled; otherwise its 0-based index does."""

    mins: np.ndarray
    maxs: np.ndarray
    names: InitVar[list[str] | None] = None

    def __post_init__(self, names):
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        if np.any(maxs < mins):
            raise DataError("channel max below min")
        with np.errstate(all="ignore"):  # an overflow is refused below
            bad = np.flatnonzero(~np.isfinite(maxs - mins))
        if bad.size:
            which = bad[0] if names is None else names[bad[0]]
            raise DataError(f"channel {which}: max - min is not finite")

    @property
    def constant(self) -> np.ndarray:
        return self.maxs == self.mins

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_series(x)
        if x.shape[1] != self.mins.size:
            raise DataError(
                f"expected {self.mins.size} channels, got {x.shape[1]}")
        span = self.maxs - self.mins
        safe = np.where(self.constant, 1.0, span)
        out = (x - self.mins) / safe
        out[:, self.constant] = 0.0
        return out


@dataclass(frozen=True)
class NormalizationParams:
    """Min-max statistics for both roles; model.json carries them so that
    later recordings are scaled as the identification data were."""

    inputs: ChannelScaling
    outputs: ChannelScaling


def normalize(
    dataset: TrajectoryDataset,
    params: NormalizationParams | None = None,
) -> tuple[TrajectoryDataset, NormalizationParams]:
    """Min-max scale each channel into [0, 1]: x' = (x - min) / (max - min).

    Constant channels map to 0 and are flagged by ``constant`` in the
    returned params.  Pass precomputed ``params`` to reuse
    identification-split statistics on validation data.  A channel that
    cannot be scaled is named by its header name, ``u:<name>`` or
    ``y:<name>``.
    """
    if params is None:
        params = NormalizationParams(*(
            ChannelScaling(x.min(axis=0), x.max(axis=0),
                           [f"{role}:{name}" for name in names])
            for role, x, names in (("u", dataset.inputs, dataset.input_names),
                                   ("y", dataset.outputs,
                                    dataset.output_names))))
    scaled = TrajectoryDataset(
        inputs=params.inputs.apply(dataset.inputs),
        outputs=params.outputs.apply(dataset.outputs),
        dt=dataset.dt,
        input_names=dataset.input_names,
        output_names=dataset.output_names,
    )
    return scaled, params


def build_hankel(series: np.ndarray, block_rows: int, columns: int) -> np.ndarray:
    """Stack ``block_rows`` time-shifted windows of ``series`` into a block
    Hankel matrix of shape (block_rows * m, columns).

    series is (N, m), or (N,) for one channel; block row s (1-based), rows
    (s-1)*m .. s*m-1, holds samples s .. s+columns-1 transposed into
    columns, so the matrix is constant along anti-diagonals at block
    granularity.  Requires N >= block_rows + columns - 1.
    """
    series = as_series(series)
    n, m = series.shape
    if block_rows < 1 or columns < 1:
        raise DataError("block_rows and columns must be >= 1")
    if n < block_rows + columns - 1:
        raise DataError(
            f"series of length {n} too short for block_rows={block_rows}, "
            f"columns={columns} (need {block_rows + columns - 1})")
    data = np.empty((block_rows * m, columns))
    data.reshape(block_rows, m, columns)[...] = sliding_window_view(
        series, columns, axis=0)[:block_rows]
    return data


#: Timestamps are uniform when every step is within this fraction of the
#: first step; the rounding of ``k * dt`` stays far below it.
TIME_STEP_RTOL = 1e-6


def _cell(row: int, col: int, header: list[str]) -> str:
    """Name a body cell: 1-based data row (blank lines not counted),
    0-based column index and the column's header name."""
    return f"row {row}, column {col} ({header[col]})"


def _find_bad_cell(raw: bytes, header: list[str]) -> str | None:
    """Describe the first body row that csv cannot read, whose field count
    is off or whose cell is not a number as np.loadtxt reads one (not a
    non-ASCII digit), rescanning the file's UTF-8 bytes row by row (error
    path only); None when the scan finds none."""
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(raw), "utf-8-sig",
                                       newline=""))
    next(rows)
    r = 0
    try:
        for r, row in enumerate((row for row in rows if row), 1):
            if len(row) != len(header):
                return (f"data row {r} has {len(row)} fields, expected "
                        f"{len(header)}")
            for c, cell in enumerate(row):
                try:
                    # np.loadtxt refuses the digit separators and the
                    # non-ASCII digits float() takes, though not Unicode
                    # space around a number
                    float(cell.strip().encode("ascii").replace(b"_", b"?"))
                except ValueError:
                    return (f"non-numeric value {cell!r} at "
                            f"{_cell(r, c, header)}")
    except csv.Error as exc:  # a field too long, say
        return f"data row {r + 1}: {exc}"
    return None


#: Bytes of CSV text below which a part does not repay its fork.  A fork
#: costs the child's start and, in the parent, a copy-on-write fault on each
#: page it writes while the child lives and a write fault on each page it
#: writes later.  On a 2-core VM, in a ~48 MB process, each call followed by
#: a gc.collect() (which writes every tracked object's header, as the
#: parent's next work does), a 1,240-row table of 10 numbers (0.21 MB) took
#: 24.9-25.9 ms in two parts against 24.0-24.3 ms serially, and 2,480 rows
#: (0.43 MB) 37.1-38.3 against 42.7-42.8 ms (medians of 41).  64 KiB, which
#: also splits the 0.16 MB criterion-11 dataset at each load, made that
#: workload slower than this value (wall_ref_s 33.1-44.1 -> 37.7-49.0 ms, 4
#: alternating pairs).  So a single table or dataset under 0.375 MiB stays
#: serial, while a sweep's two distinct 0.23 MB run tables make two parts
#: (pipeline.cmd_sweep).
_PART_BYTES = 3 << 16


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cuts(n: int, nbytes: int) -> list[int]:
    """Bounds 0 = c0 < ... < ck = n cutting n items, about ``nbytes`` of
    CSV text, into k equal parts: one per usable CPU, each of at least
    _PART_BYTES."""
    k = max(1, min(_usable_cpus(), nbytes // _PART_BYTES, n))
    return [n * i // k for i in range(k + 1)]


#: Whether this process is running parts; a forked child inherits it.
_in_part = False


def _child(part, lo: int, hi: int, out: int, pipes: list[int]) -> None:
    """Run ``part(lo, hi)`` in a forked child, write its bytes to the
    ``out`` pipe and leave by os._exit, with status 0 only on success.

    The child is fork-safe although the parent may have threads (BLAS
    workers): it only parses or formats text and writes files, which
    takes no lock another thread could hold at the fork (numpy's text I/O
    calls no BLAS, and the C library resets malloc's locks in the child).
    It touches none of the parent's file objects, and os._exit skips the
    exit handlers, buffer flushes and finalizers that would repeat the
    parent's.
    """
    status = 1
    try:
        # every read end the child inherited, so that when the parent
        # closes one its writer gets EPIPE instead of blocking
        for fd in pipes:
            os.close(fd)
        data = part(lo, hi)
        with open(out, "wb") as f:
            f.write(data)
        status = 0
    finally:
        os._exit(status)


def _in_parts(bounds: list[int], part) -> list[bytes] | None:
    """Run ``part(lo, hi) -> bytes`` over each range between successive
    ``bounds``: the first in this process, each other in a forked child
    that pipes its bytes back.  Returns the bytes in order, or None, for
    the caller to redo the whole job serially, when there is one part,
    no os.fork or a part already running in this process (parts do not
    nest), or when a pipe, a fork or any part fails.

    The part contract: a part fails by raising OSError or ValueError, in
    this process or a child; any exception fails a child's part.  Any
    other exception from this process's part propagates once every child
    is reaped, so it must be the one the serial job would raise first.
    A part may write files, as long as running it again over the whole
    range (the serial redo) writes the same ones.  Every child is reaped,
    whether the parts succeed, fail or raise."""
    global _in_part
    if len(bounds) < 3 or _in_part or not hasattr(os, "fork"):
        return None
    pipes, pids, out = [], [], None
    _in_part = True
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on forking a process that has threads;
            # _child says why these children are safe
            warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                read, write = os.pipe()
                pipes.append(read)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _child(part, lo, hi, write, pipes)
                    pids.append(pid)
                finally:
                    os.close(write)
        out = [part(bounds[0], bounds[1])]
        for fd in pipes:
            with open(fd, "rb", closefd=False) as f:
                out.append(f.read())
    except (OSError, ValueError):
        out = None
    finally:
        _in_part = False
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            if os.waitpid(pid, 0)[1]:
                out = None
    return out


def run_parts(n: int, nbytes: int, part) -> list[bytes]:
    """``part(lo, hi) -> bytes`` over range(n), items about ``nbytes`` of
    CSV text, in parts cut by _cuts (_in_parts), or serially as
    ``[part(0, n)]`` when _in_parts returns None."""
    return _in_parts(_cuts(n, nbytes), part) or [part(0, n)]


def _loadtxt(lines) -> np.ndarray:
    """CSV numbers in load_dataset's dialect as a 2-D array."""
    with warnings.catch_warnings():
        # an empty body is reported by the caller as too few rows
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None,
                          quotechar='"', ndmin=2)


def _load_parts(raw: bytes, width: int) -> np.ndarray | None:
    """The body of a CSV dataset's bytes ``raw`` parsed in parts
    (_in_parts) cut at line starts, each part parsing its own slice, or
    None when it is to be parsed serially: the bytes are short, the
    header is not one plain LF or CRLF line, the body has no line feed
    past the first cut (CR line ends), or a part fails (a double quote in
    its bytes included).  A part never starts the file, so it holds no
    byte order mark to drop."""
    cuts = _cuts(len(raw), len(raw))
    head = raw[:raw.find(b"\n") + 1]
    if len(cuts) < 3 or not head or b'"' in head or b"\r" in head[:-2]:
        return None  # the header record may not end at this line feed
    bounds = [len(head), len(raw)]
    bounds += [raw.find(b"\n", cut - 1) + 1 or len(raw) for cut in cuts[1:-1]]

    def parse(lo: int, hi: int) -> bytes:
        data = raw[lo:hi]
        if b'"' in data:  # the cut's line end may lie inside a quoted cell
            raise ValueError("a quoted cell may span a part boundary")
        part = _loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                         newline=""))
        if part.size and part.shape[1] != width:  # a blank part is (0, 1)
            raise ValueError("part rows differ in width from the header")
        return part.tobytes()

    parts = _in_parts(sorted(set(bounds)), parse)
    if parts is None:
        return None
    return np.concatenate([np.frombuffer(p) for p in parts]).reshape(-1, width)


def load_dataset(path, dt: float | None = None) -> TrajectoryDataset:
    """Load a trajectory dataset from CSV.

    Header must name every channel with a ``u:`` or ``y:`` prefix; an
    optional leading ``t`` column supplies timestamps, which must step
    uniformly (each step within ``TIME_STEP_RTOL`` of the first, relative).
    dt is that first step unless ``dt`` is given explicitly.  The body is
    comma-separated numbers, optionally double-quoted or space-padded,
    with LF, CRLF or CR line ends; blank lines are skipped.  The file is
    read once, so a pipe parses like a regular file.  A file that is not
    UTF-8 (after an optional byte order mark) is a DataError before any
    cell is read.  Otherwise a DataError names the first unreadable data
    row (from 1, blank lines not counted) and its cell's 0-based column; a
    non-ASCII digit is not a number.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(
            f"cannot open dataset file {path}: {exc.strerror}") from exc
    if not raw.isascii():  # an ASCII file needs no decode, nor its copy
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad byte ends no line, so the last line up to it is its own
            raise DataError(
                f"{path}: line {len(raw[:exc.start + 1].splitlines())} is "
                f"not UTF-8 (byte 0x{raw[exc.start]:02x})") from exc
    f = io.TextIOWrapper(io.BytesIO(raw), "utf-8-sig", newline="")
    try:
        header = next(csv.reader(f))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    header = [h.strip() for h in header]
    has_time = bool(header) and header[0] == "t"
    for name in header[1:] if has_time else header:
        if name[:2] not in ("u:", "y:"):
            raise DataError(
                f"{path}: column '{name}' lacks a u:/y: role prefix")
    u_idx = [i for i, name in enumerate(header) if name[:2] == "u:"]
    y_idx = [i for i, name in enumerate(header) if name[:2] == "y:"]
    if not u_idx or not y_idx:
        raise DataError(f"{path}: need at least one u: and one y: column")
    data = _load_parts(raw, len(header))
    if data is None:
        try:
            data = _loadtxt(f)
        except ValueError as exc:
            where = _find_bad_cell(raw, header) or exc
            raise DataError(f"{path}: {where}") from exc
    if data.shape[0] < 2:
        raise DataError(f"{path}: fewer than 2 data rows")
    if data.shape[1] != len(header):
        raise DataError(
            f"{path}: data rows have {data.shape[1]} fields, "
            f"expected {len(header)}")
    for r, c in np.argwhere(~np.isfinite(data)):
        raise DataError(
            f"{path}: non-finite value at {_cell(r + 1, c, header)}")
    if has_time:
        steps = np.diff(data[:, 0])
        bad = ((steps <= 0)
               | (np.abs(steps - steps[0]) > TIME_STEP_RTOL * steps[0]))
        if bad.any():
            k = int(np.argmax(bad))
            raise DataError(
                f"{path}: timestamps must increase uniformly; rows {k + 1} "
                f"to {k + 2} step by {float(steps[k])}, the first step is "
                f"{float(steps[0])}")
        if dt is None:
            dt = float(steps[0])
    return TrajectoryDataset(
        inputs=data[:, u_idx],
        outputs=data[:, y_idx],
        dt=DEFAULT_DT if dt is None else dt,
        input_names=tuple(header[i][2:] for i in u_idx),
        output_names=tuple(header[i][2:] for i in y_idx),
    )


def _lines(table: np.ndarray, first_index: int | None, lo: int,
           hi: int) -> bytes:
    """Rows lo..hi of ``table`` as table_bytes' CSV lines."""
    rows = table[lo:hi].tolist()
    if first_index is None:
        return "".join(f"{','.join(map(repr, r))}\r\n" for r in rows).encode()
    return "".join(f"{k},{','.join(map(repr, r))}\r\n" for k, r
                   in enumerate(rows, first_index + lo)).encode()


def text_size(table: np.ndarray, first_index: int | None = 0) -> int:
    """About the bytes of table_bytes' lines for ``table``: its row count
    times the length of its first row's line."""
    return len(table) * len(_lines(table, first_index, 0, 1))


def table_bytes(columns: list[str], table: np.ndarray,
                stamp: str | None = None, first_index: int | None = 0) -> bytes:
    """The optional ``stamp`` line, the ``columns`` header and one CSV line
    per row of the 2-D array ``table``, led by its index from
    ``first_index`` unless that is None, as UTF-8: ``repr`` cells of the
    row's ``tolist()`` (an object array keeps its ints), CRLF line ends,
    the bytes ``csv.writer`` gives for ``repr(float(v))`` cells.  A long
    table is formatted in parts (_in_parts), each converting its own rows."""
    def lines(lo: int, hi: int) -> bytes:
        return _lines(table, first_index, lo, hi)

    body = run_parts(len(table), text_size(table, first_index), lines)
    head = io.StringIO()
    if stamp is not None:
        head.write(stamp + "\n")
    csv.writer(head).writerow(columns)
    return b"".join([head.getvalue().encode(), *body])


def save_dataset(dataset: TrajectoryDataset, path) -> None:
    """Write a dataset back to the CSV layout accepted by load_dataset,
    with a leading ``t`` column."""
    header = (["t"] + [f"u:{n}" for n in dataset.input_names]
              + [f"y:{n}" for n in dataset.output_names])
    times = np.arange(dataset.n_samples)[:, None] * dataset.dt
    Path(path).write_bytes(table_bytes(
        header, np.hstack([times, dataset.inputs, dataset.outputs]),
        first_index=None))
