import csv
import io
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from telekf import dataio, estimator, metrics, netsim, sysid
from telekf.errors import DataError

from conftest import random_stable_system


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_minimal_two_rows(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n1,2\n3,4\n")
        ds = dataio.load_dataset(p)
        assert ds.n_samples == 2
        assert ds.m_in == 1 and ds.m_out == 1
        np.testing.assert_array_equal(ds.inputs.ravel(), [1, 3])
        np.testing.assert_array_equal(ds.outputs.ravel(), [2, 4])

    def test_jigsaws_scale(self, tmp_path):
        rng = np.random.default_rng(0)
        header = "t," + ",".join(f"u:m{i}" for i in range(3)) + "," + \
            ",".join(f"y:s{i}" for i in range(3))
        lines = [header]
        for k in range(1240):
            vals = [k / 30.0] + list(rng.standard_normal(6))
            lines.append(",".join(str(v) for v in vals))
        p = write_csv(tmp_path / "j.csv", "\n".join(lines) + "\n")
        ds = dataio.load_dataset(p)
        assert ds.n_samples == 1240
        assert ds.m_in == 3 and ds.m_out == 3
        assert ds.dt == pytest.approx(1 / 30)

    def test_nan_is_hard_error(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n1,2\nnan,4\n")
        with pytest.raises(DataError, match="non-finite value at row 2, column 0"):
            dataio.load_dataset(p)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_bad_dt_is_data_error(self, tmp_path, dt):
        with pytest.raises(DataError, match="positive and finite"):
            dataio.TrajectoryDataset(inputs=np.zeros(3), outputs=np.ones(3),
                                     dt=dt)
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="positive and finite"):
            dataio.load_dataset(p, dt=dt)

    @pytest.mark.parametrize("kwargs, message", [
        ({"inputs": np.zeros(3), "outputs": np.zeros(4)},
         "inputs have 3 rows but outputs have 4"),
        ({"inputs": np.zeros(1), "outputs": np.zeros(1)},
         "dataset needs at least 2 rows"),
        ({"inputs": [0.0, np.inf, 0.0], "outputs": np.zeros(3)},
         "non-finite value in inputs at row 1, column 0"),
        ({"inputs": np.zeros(3), "outputs": [[0, 0], [0, np.nan], [0, 0]]},
         "non-finite value in outputs at row 1, column 1"),
        ({"inputs": np.zeros(3), "outputs": np.zeros(3),
          "input_names": ("a", "b")},
         "input_names length does not match input columns"),
        ({"inputs": np.zeros(3), "outputs": np.zeros(3),
          "output_names": ("a", "b")},
         "output_names length does not match output columns"),
    ], ids=["row_counts_differ", "one_row", "non_finite_input",
            "non_finite_output", "input_names_length",
            "output_names_length"])
    def test_inconsistent_arrays_are_data_error(self, kwargs, message):
        # the arrays' own checks (load_dataset names the file's cell first)
        with pytest.raises(DataError) as info:
            dataio.TrajectoryDataset(**kwargs)
        assert str(info.value) == message

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            dataio.load_dataset(tmp_path / "absent.csv")

    def test_column_count_mismatch(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match="fields"):
            dataio.load_dataset(p)

    @pytest.mark.parametrize("text, message", [
        ("a,y:b\n1,2\n3,4\n", "column 'a' lacks a u:/y: role prefix"),
        ("u:a,u:b\n1,2\n3,4\n", "need at least one u: and one y: column"),
        ("y:a,y:b\n1,2\n3,4\n", "need at least one u: and one y: column"),
        ("", "empty file"),
    ], ids=["no_prefix", "no_output", "no_input", "empty"])
    def test_missing_role_prefix(self, tmp_path, text, message):
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(DataError) as info:
            dataio.load_dataset(p)
        assert str(info.value) == f"{p}: {message}"

    def test_single_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n1,2\n")
        with pytest.raises(DataError, match="fewer than 2"):
            dataio.load_dataset(p)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = dataio.TrajectoryDataset(inputs=rng.standard_normal((50, 2)),
                                      outputs=rng.standard_normal((50, 3)),
                                      dt=0.01)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        dataio.save_dataset(ds, p1)
        loaded = dataio.load_dataset(p1)
        np.testing.assert_array_equal(loaded.inputs, ds.inputs)
        np.testing.assert_array_equal(loaded.outputs, ds.outputs)
        dataio.save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


def old_parse(path):
    """The row-by-row reader the bulk loader replaced: csv.reader, blank
    rows skipped, float() per cell."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader if row])


class TestLoaderDialect:
    HEADER = "t,u:a,y:b,y:c"
    BODIES = {
        "crlf": "0.0,1.5,-2,3e-3\r\n0.25,4,5.25,-6\r\n0.5,7,8,9\r\n",
        "blank_lines": "\n0.0,1.5,-2,3e-3\n\n0.25,4,5.25,-6\n\n\n0.5,7,8,9\n",
        "padded": " 0.0 , 1.5,\t-2 ,3e-3\n0.25,  4,5.25 , -6\n0.5,7,8,9  \n",
        "quoted": '"0.0","1.5",-2,"3e-3"\n0.25,4," 5.25",-6\n0.5,7,8,"9"\n',
        "cr": "0.0,1.5,-2,3e-3\r0.25,4,5.25,-6\r0.5,7,8,9\r",
    }

    def write(self, path, kind):
        newline = {"crlf": "\r\n", "cr": "\r"}.get(kind, "\n")
        path.write_bytes((self.HEADER + newline + self.BODIES[kind]).encode())
        return path

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_matches_row_parser(self, tmp_path, kind):
        p = self.write(tmp_path / "d.csv", kind)
        ds = dataio.load_dataset(p)
        ref = old_parse(p)
        np.testing.assert_array_equal(ds.inputs, ref[:, 1:2])
        np.testing.assert_array_equal(ds.outputs, ref[:, 2:])
        assert ds.dt == 0.25

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_parts_match_row_parser(self, tmp_path, forks, kind):
        p = self.write(tmp_path / "d.csv", kind)
        ds = dataio.load_dataset(p)
        ref = old_parse(p)
        np.testing.assert_array_equal(ds.inputs, ref[:, 1:2])
        np.testing.assert_array_equal(ds.outputs, ref[:, 2:])
        parts = dataio._load_parts(p.read_bytes(), 4)
        if kind == "cr":
            # no line feed to cut at: one serial part, no fork
            assert not forks and parts is None
        elif kind == "quoted":
            # a quote could hide a line end, so the parts give way to one
            # serial pass
            assert forks and parts is None
        else:
            assert forks
            np.testing.assert_array_equal(parts, ref)

    @pytest.mark.parametrize("body", [
        "1,2\n3,4,5\n6,7\n",     # ragged row
        "1,2\nx,4\n",             # non-numeric cell
    ], ids=["ragged", "non_numeric"])
    def test_bad_body_is_data_error(self, tmp_path, body):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n" + body)
        with pytest.raises(DataError, match=str(p.name)):
            dataio.load_dataset(p)

    @pytest.mark.parametrize("cell, message", [
        ("x", "non-numeric value 'x' at row 2, column 2 (y:b)"),
        ("1_0", "non-numeric value '1_0' at row 2, column 2 (y:b)"),
        ("nan", "non-finite value at row 2, column 2 (y:b)"),
    ], ids=["non_numeric", "digit_separator", "non_finite"])
    def test_bad_cell_messages_agree(self, tmp_path, cell, message):
        # the blank line is not a data row
        p = write_csv(tmp_path / "d.csv", f"t,u:a,y:b\n0,1,2\n\n1,3,{cell}\n")
        with pytest.raises(DataError, match=re.escape(message)):
            dataio.load_dataset(p)

    @pytest.mark.parametrize("data, message", [
        (b"u:a,y:b\n" + b"1,2\n" * 4096 + b"1,\xff\n",
         re.escape("line 4098 is not UTF-8 (byte 0xff)")),
        (b"u:a,y:b\n" + b"1,2\n" * 4096 + b"1," + b"x" * 200_000,
         re.escape("data row 4097: field larger than field limit (131072)")),
        (b"u:\xe90,y:b\n1,2\n3,4\n",
         re.escape("line 1 is not UTF-8 (byte 0xe9)")),
        (b"u:a,y:b\n1,2\n" + b"1,\xe9\n" + b"1,2\n" * 100,
         re.escape("line 3 is not UTF-8 (byte 0xe9)")),
        (b"u:" + b"a" * 200_000 + b",y:b\n1,2\n3,4\n",
         re.escape("field larger than field limit (131072)")),
        # the byte order mark is no line; CRLF and CR each end one
        (b"\xef\xbb\xbfu:a,y:b\r\n" + b"1,2\r\n" * 3000 + b"1,2\r" * 3000
         + b"1,\xfe\r\n", re.escape("line 6002 is not UTF-8 (byte 0xfe)")),
        # a file that is not UTF-8 is rejected before any cell is read
        (b"u:a,y:b\n" + b"1,2\n" * 9 + b"1,x\n" + b"1,2\n" * 5000
         + b"1,\xff\n", re.escape("line 5012 is not UTF-8 (byte 0xff)")),
    ], ids=["non_utf8_byte", "overlong_field", "non_utf8_header",
            "non_utf8_byte_in_first_chunk", "overlong_header_field",
            "non_utf8_byte_after_crlf_and_cr", "non_utf8_byte_after_bad_cell"])
    def test_unreadable_cell_past_first_chunk_is_data_error(
            self, tmp_path, request, data, message):
        # a byte that is not UTF-8 is named by its file line, whichever
        # chunk or part holds it; a row csv cannot read, by its data row
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        for parts in (False, True):
            if parts:
                request.getfixturevalue("forks")
            with pytest.raises(DataError) as info:
                dataio.load_dataset(p)
            assert re.fullmatch(re.escape(f"{p}: ") + message,
                                str(info.value), re.S), str(info.value)[:200]

    @pytest.mark.parametrize("cell, value", [
        ("\u0661", "non-numeric value {!r}"),
        ("\uff11", "non-numeric value {!r}"),
        ("\u00a02", 2.0),
        ("2\u2003", 2.0),
        ("\u30002", 2.0),
        ("2\u200b", "non-numeric value {!r}"),
        ("1_0", "non-numeric value {!r}"),
        ("0x1p3", "non-numeric value {!r}"),
        ("", "non-numeric value {!r}"),
        ("1e400", "non-finite value"),
        ("nan", "non-finite value"),
        ("Infinity", "non-finite value"),
    ], ids=["arabic_indic_digit", "fullwidth_digit", "nbsp_padded",
            "em_space_padded", "ideographic_space_padded",
            "zero_width_space", "digit_separator", "hex_float", "empty",
            "overflow", "nan", "infinity"])
    def test_cell_spelling_loads_or_is_named(self, tmp_path, request, cell,
                                             value):
        # float() takes more spellings than np.loadtxt: the cell loads as
        # np.loadtxt reads it, or the error names it, serially and in parts
        rows = [f"{k},{k % 7},{k % 5}" for k in range(30)]
        rows[27] = f"27,3,{cell}"
        p = tmp_path / "d.csv"
        p.write_bytes(("t,u:a,y:b\n" + "\n".join(rows) + "\n").encode())
        for parts in (False, True):
            forks = request.getfixturevalue("forks") if parts else []
            if isinstance(value, float):
                assert dataio.load_dataset(p).outputs[27, 0] == value
            else:
                with pytest.raises(DataError) as info:
                    dataio.load_dataset(p)
                assert str(info.value) == \
                    f"{p}: {value.format(cell)} at row 28, column 2 (y:b)"
            assert len(forks) == (2 if parts else 0)

    @pytest.mark.parametrize("parts", [False, True], ids=["serial", "parts"])
    def test_byte_order_mark_is_dropped(self, tmp_path, request, parts):
        # a spreadsheet's "CSV UTF-8" export starts with one
        text = "t,u:a,y:b\n" + "".join(f"{k},{k % 7},{k % 5}\n"
                                       for k in range(30))
        plain = write_csv(tmp_path / "plain.csv", text)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ref = dataio.load_dataset(plain)
        forks = request.getfixturevalue("forks") if parts else []
        ds = dataio.load_dataset(marked)
        assert len(forks) == (2 if parts else 0)
        assert (ds.input_names, ds.output_names, ds.dt) == \
            (ref.input_names, ref.output_names, ref.dt)
        np.testing.assert_array_equal(ds.inputs, ref.inputs)
        np.testing.assert_array_equal(ds.outputs, ref.outputs)

    def test_ragged_row_is_numbered(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n1,2\n\n3,4,5\n6,7\n")
        with pytest.raises(DataError, match="data row 2 has 3 fields, "
                                            "expected 2"):
            dataio.load_dataset(p)

    def test_header_only_names_row_count(self, tmp_path, recwarn):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n")
        with pytest.raises(DataError, match="fewer than 2 data rows"):
            dataio.load_dataset(p)
        assert not [w for w in recwarn if "loadtxt" in str(w.message)]


class TestTimestamps:
    def test_k_times_dt_rounding_passes(self, tmp_path):
        dt = 1 / 30
        rows = [f"{k * dt!r},{k % 7},{k % 5}" for k in range(36000)]
        p = write_csv(tmp_path / "d.csv", "t,u:a,y:b\n" + "\n".join(rows))
        assert dataio.load_dataset(p).dt == dt

    # the steps print as plain floats, not numpy reprs
    @pytest.mark.parametrize("times, steps", [
        ([0.0, 0.1, 0.2, 0.35, 0.4],       # one long step
         "rows 3 to 4 step by 0.14999999999999997, the first step is 0.1"),
        ([0.0, 0.1, 0.2, 0.2, 0.3],        # repeated timestamp
         "rows 3 to 4 step by 0.0, the first step is 0.1"),
        ([0.4, 0.3, 0.2, 0.1, 0.0],        # decreasing
         "rows 1 to 2 step by -0.10000000000000003, the first step is "
         "-0.10000000000000003"),
        ([0.0, 0.1, 0.2, 0.300001, 0.4],   # off by 1e-5 of a step
         "rows 3 to 4 step by 0.100001, the first step is 0.1"),
    ], ids=["gap", "repeat", "decreasing", "jitter"])
    def test_non_uniform_is_data_error(self, tmp_path, times, steps):
        rows = [f"{t},{k},{k}" for k, t in enumerate(times)]
        p = write_csv(tmp_path / "d.csv", "t,u:a,y:b\n" + "\n".join(rows))
        with pytest.raises(DataError) as info:
            dataio.load_dataset(p)
        assert str(info.value) == (
            f"{p}: timestamps must increase uniformly; {steps}")

    def test_explicit_dt_still_checks_uniformity(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "t,u:a,y:b\n0,1,2\n1,3,4\n3,5,6\n")
        with pytest.raises(DataError, match="uniformly"):
            dataio.load_dataset(p, dt=0.5)


class TestWriteTable:
    VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16,
              1.7976931348623157e308, -1.2345678901234567e-300, 0.1, 1 / 3,
              -2.5, 123456789.125]

    def reference(self, columns, table, stamp, first_index):
        """csv.writer over repr(float(v)) cells, as the exports were
        written row by row."""
        buf = io.StringIO(newline="")
        if stamp is not None:
            buf.write(stamp + "\n")
        writer = csv.writer(buf)
        writer.writerow(columns)
        for k, row in enumerate(table):
            lead = [] if first_index is None else [k + first_index]
            writer.writerow(lead + [repr(float(v)) for v in row])
        return buf.getvalue().encode()

    CASES = pytest.mark.parametrize("stamp,first_index", [
        ("# config_hash=abc metric_def=nrmse_range", 0),
        (None, 1),
        (None, None),
    ])

    def bytes_and_reference(self, stamp, first_index):
        table = np.array(self.VALUES).reshape(4, 3)
        columns = ["a", "b", "c"] if first_index is None else \
            ["k", "a", "b", "c"]
        data = dataio.table_bytes(columns, table, stamp=stamp,
                                  first_index=first_index)
        return data, self.reference(columns, table, stamp, first_index)

    @CASES
    def test_bytes_match_csv_writer(self, stamp, first_index):
        data, reference = self.bytes_and_reference(stamp, first_index)
        assert data == reference

    @CASES
    def test_parts_match_csv_writer(self, forks, stamp, first_index):
        data, reference = self.bytes_and_reference(stamp, first_index)
        assert data == reference
        assert len(forks) == 2

    def test_parts_do_not_nest(self, forks):
        # a part that formats a table, in this process or a child, formats
        # it serially: the one fork is the outer call's
        table = np.array(self.VALUES).reshape(4, 3)
        serial = dataio.table_bytes(["a", "b", "c"], table)
        forks.clear()

        def part(lo, hi):
            made = len(forks)  # a child appends to its own copy
            data = dataio.table_bytes(["a", "b", "c"], table)
            return bytes([len(forks) - made]) + data

        assert dataio._in_parts([0, 1, 2], part) == [b"\0" + serial] * 2
        assert len(forks) == 1

    def test_integer_cells_stay_integers(self):
        table = np.array([[0.5, 3, 0], [-0.0, 0, 1]], dtype=object)
        data = dataio.table_bytes(["k", "x", "src", "lost"], table)
        assert data == b"k,x,src,lost\r\n0,0.5,3,0\r\n1,-0.0,0,1\r\n"


class TestParts:
    """Failures in a part give way to one serial pass of the whole job,
    with its array, bytes and error messages."""

    ROWS = [f"{k},{k % 7}" for k in range(30)]

    @pytest.mark.parametrize("row", [2, 27], ids=["parent", "child"])
    @pytest.mark.parametrize("bad, message", [
        ("1,x", "non-numeric value 'x' at row {r}, column 1 (y:b)"),
        ("1,2,3", "data row {r} has 3 fields, expected 2"),
    ], ids=["non_numeric", "ragged"])
    def test_bad_row_gives_serial_message(self, tmp_path, forks, row, bad,
                                          message):
        rows = list(self.ROWS)
        rows[row] = bad
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n" + "\n".join(rows))
        with pytest.raises(DataError, match=re.escape(
                message.format(r=row + 1))):
            dataio.load_dataset(p)
        assert len(forks) == 2

    def test_rows_wider_than_header_give_serial_message(self, tmp_path,
                                                        forks):
        # every part is rectangular, but not as wide as the header
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n"
                      + "\n".join(f"{row},0" for row in self.ROWS))
        with pytest.raises(DataError,
                           match="data rows have 3 fields, expected 2"):
            dataio.load_dataset(p)
        assert len(forks) == 2

    def test_failing_fork_falls_back_to_serial(self, tmp_path, monkeypatch):
        p = write_csv(tmp_path / "d.csv", "u:a,y:b\n" + "\n".join(self.ROWS))
        serial = dataio.load_dataset(p)
        table = np.hstack([serial.inputs, serial.outputs])
        serial_bytes = dataio.table_bytes(["k", "a", "b"], table)

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(dataio, "_PART_BYTES", 16)
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork)
        ds = dataio.load_dataset(p)
        np.testing.assert_array_equal(ds.inputs, serial.inputs)
        np.testing.assert_array_equal(ds.outputs, serial.outputs)
        assert dataio.table_bytes(["k", "a", "b"], table) == serial_bytes


class TestOneRead:
    """A dataset file is read once, and every parse works from those
    bytes: a FIFO parses like a regular file, and a file put in its place
    during the load is not read."""

    def test_fifo_bad_cell_is_named(self, tmp_path):
        text = b"t,u:a,y:b\n0,1,2\n1,3,x\n2,4,5\n"
        message = "non-numeric value 'x' at row 2, column 2 (y:b)"
        regular = tmp_path / "d.csv"
        regular.write_bytes(text)
        with pytest.raises(DataError, match=re.escape(f"{regular}: {message}")):
            dataio.load_dataset(regular)
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)
        done = threading.Event()

        def feed():
            fifo.write_bytes(text)
            # a reader that opens the FIFO again gets an empty stream
            # instead of waiting for a writer forever
            while not done.wait(0.01):
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # ENXIO: no reader
                    pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            with pytest.raises(DataError,
                               match=re.escape(f"{fifo}: {message}")):
                dataio.load_dataset(fifo)
        finally:
            done.set()
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_file_replaced_mid_load_is_not_read(self, tmp_path, forks,
                                                monkeypatch):
        p = write_csv(tmp_path / "d.csv", "t,u:a,y:b\n" + "".join(
            f"{k},{k % 7},{k % 5}\n" for k in range(30)))
        swap = write_csv(tmp_path / "swap.csv", "t,y:b,u:a\n" + "".join(
            f"{k},{k % 5},{k % 7}\n" for k in range(30)))
        ref = dataio.load_dataset(p)
        counted_fork = os.fork

        def fork():
            if swap.exists():  # at the first fork only
                os.replace(swap, p)
            return counted_fork()

        monkeypatch.setattr(os, "fork", fork)
        forks.clear()
        ds = dataio.load_dataset(p)
        assert len(forks) == 2 and not swap.exists()
        np.testing.assert_array_equal(ds.inputs, ref.inputs)
        np.testing.assert_array_equal(ds.outputs, ref.outputs)


class TestNormalize:
    def make(self, col, out=None):
        col = np.asarray(col, dtype=float)
        out = col if out is None else np.asarray(out, dtype=float)
        return dataio.TrajectoryDataset(inputs=col.reshape(-1, 1),
                                        outputs=out.reshape(-1, 1))

    def test_basic_channel(self):
        norm, _ = dataio.normalize(self.make([0, 5, 10]))
        np.testing.assert_allclose(norm.inputs.ravel(), [0, 0.5, 1])

    def test_negative_range(self):
        norm, _ = dataio.normalize(self.make([-1, 0, 1]))
        np.testing.assert_allclose(norm.inputs.ravel(), [0, 0.5, 1])

    def test_constant_channel_flagged(self):
        norm, params = dataio.normalize(self.make([3, 3, 3], [0, 1, 2]))
        np.testing.assert_array_equal(norm.inputs.ravel(), [0, 0, 0])
        assert params.inputs.constant[0]
        assert not params.outputs.constant[0]

    def test_unscalable_range_is_data_error(self):
        # each bound finite (or NaN, as JSON null reads), max - min not:
        # refused before apply divides by it, without a numpy warning; a
        # dataset's channel is named by its header name, a bare scaling's
        # by its index
        with pytest.raises(DataError) as info:
            dataio.normalize(self.make([0.0, 1.5e308, -1.5e308]))
        assert str(info.value) == "channel u:u0: max - min is not finite"
        with pytest.raises(DataError) as info:
            dataio.ChannelScaling(mins=[0.0, np.nan], maxs=[1.0, 1.0])
        assert str(info.value) == "channel 1: max - min is not finite"

    def test_idempotent(self, rng):
        ds = dataio.TrajectoryDataset(inputs=rng.standard_normal((40, 2)),
                                      outputs=rng.standard_normal((40, 2)))
        once, _ = dataio.normalize(ds)
        twice, _ = dataio.normalize(once)
        np.testing.assert_array_equal(once.inputs, twice.inputs)
        np.testing.assert_array_equal(once.outputs, twice.outputs)



class TestDenormalize:
    """Raw and normalized units map onto each other by x = x' (max - min)
    + min; ChannelScaling.apply is checked against that map."""

    def test_known_values(self):
        sc = dataio.ChannelScaling(mins=np.array([0.0]),
                                   maxs=np.array([10.0]))
        np.testing.assert_allclose(
            sc.apply(np.array([[0.0], [5.0], [10.0]])).ravel(),
            [0, 0.5, 1])

    def test_symmetric_range(self):
        sc = dataio.ChannelScaling(mins=np.array([-2.0]),
                                   maxs=np.array([2.0]))
        np.testing.assert_allclose(
            sc.apply(np.array([[-1.0]])), [[0.25]])

    def test_channel_mismatch(self):
        sc = dataio.ChannelScaling(mins=np.array([0.0]),
                                   maxs=np.array([1.0]))
        with pytest.raises(DataError):
            sc.apply(np.zeros((3, 2)))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (7, 3),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_roundtrip_property(self, x):
        ds = dataio.TrajectoryDataset(inputs=x, outputs=x)
        norm, params = dataio.normalize(ds)
        sc = params.outputs
        back = norm.outputs * (sc.maxs - sc.mins) + sc.mins
        nonconst = ~params.outputs.constant
        # error scales with the channel range, not the individual value
        spans = (params.outputs.maxs - params.outputs.mins)[nonconst]
        scale = np.maximum(spans, 1.0)
        assert np.all(np.abs(back[:, nonconst] - x[:, nonconst]) / scale < 1e-12)


class TestHankel:
    def test_scalar_by_hand(self):
        h = dataio.build_hankel(np.array([1.0, 2, 3, 4, 5]), 2, 3)
        np.testing.assert_array_equal(h, [[1, 2, 3], [2, 3, 4]])

    def test_single_column(self):
        h = dataio.build_hankel(np.array([1.0, 2, 3]), 3, 1)
        np.testing.assert_array_equal(h, [[1], [2], [3]])

    def test_one_sample_of_several_channels(self):
        h = dataio.build_hankel(np.array([[1.0, 2.0, 3.0]]), 1, 1)
        np.testing.assert_array_equal(h, [[1], [2], [3]])

    def test_jigsaws_scale_dimensions(self, rng):
        series = rng.standard_normal((1240, 3))
        h = dataio.build_hankel(series, 20, 1221)
        assert h.shape == (60, 1221)
        # independent index walk: entry (s*3+i, j) == series[s+j, i]
        for s in (0, 7, 19):
            for j in (0, 500, 1220):
                for i in range(3):
                    assert h[s * 3 + i, j] == series[s + j, i]

    def test_insufficient_samples(self):
        with pytest.raises(DataError, match="too short"):
            dataio.build_hankel(np.arange(4.0), 3, 3)
        for block_rows, columns in ((0, 3), (3, 0)):
            with pytest.raises(DataError, match="^block_rows and columns "
                                                "must be >= 1$"):
                dataio.build_hankel(np.arange(4.0), block_rows, columns)

    def test_matches_block_row_loop(self, rng):
        series = rng.standard_normal((257, 4))
        block_rows, columns = 9, 240
        h = dataio.build_hankel(series, block_rows, columns)
        ref = np.empty((block_rows * 4, columns))
        for s in range(block_rows):
            ref[s * 4:(s + 1) * 4, :] = series[s:s + columns, :].T
        assert h.flags.c_contiguous
        assert h.tobytes() == ref.tobytes()

    def test_antidiagonal_property(self, rng):
        series = rng.standard_normal((30, 2))
        h = dataio.build_hankel(series, 5, 20)
        for s in range(4):  # block row s is rows 2s and 2s+1
            np.testing.assert_array_equal(h[2 * s + 2:2 * s + 4, :-1],
                                          h[2 * s:2 * s + 2, 1:])


class TestAsSeries:
    def test_one_dimensional_is_one_channel(self):
        x = dataio.as_series([1, 2, 3])
        assert x.dtype == float
        np.testing.assert_array_equal(x, [[1.0], [2.0], [3.0]])

    def test_two_dimensional_passes_through(self):
        row = np.array([[1.0, 2.0, 3.0]])
        assert dataio.as_series(row) is row


def _one_channel_entry_points():
    """Every entry point that takes a time series, as a function of one
    input series u and one output series y."""
    rng = np.random.default_rng(2)
    model = random_stable_system(rng, 2, 1, 1)
    noise = estimator.NoiseModel(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    scaling = dataio.ChannelScaling([-1.0], [3.0])
    scenario = netsim.NetworkScenario(40.0, 20.0, 0.05, seed=3)

    def dataset(u, y):
        ds = dataio.TrajectoryDataset(u, y)
        return ds.inputs, ds.outputs

    def filter_run(u, y):
        run = estimator.run_filter(model, noise, u, y)
        return run.estimates, run.innovations, run.states

    def bootstrap(u, y):
        found = estimator.estimate_noise_empirical(model, u, y)
        return found.Q, found.R

    return {
        "TrajectoryDataset": dataset,
        "ChannelScaling.apply": lambda u, y: scaling.apply(u),
        "build_hankel": lambda u, y: dataio.build_hankel(u, 5, 100),
        "moesp_decompose":
            lambda u, y: sysid.moesp_decompose(u, y, 5).singular_values,
        "input_terms": lambda u, y: model.input_terms(u),
        "simulate": lambda u, y: sysid.simulate(model, u),
        "run_filter": filter_run,
        "estimate_noise_empirical": bootstrap,
        "autocorrelations": lambda u, y: metrics.autocorrelations(y, 10),
        "report_run":
            lambda u, y: metrics.report_run(0.9 * y, y, y).to_dict(),
        "fit_report":
            lambda u, y: metrics.fit_report(model, u, y)[1].to_dict(),
        "impair": lambda u, y: netsim.impair(y, scenario, 1 / 30).observed,
    }


class TestOneChannelSeries:
    """A 1-D series is N samples of one channel at every entry point."""

    @pytest.mark.parametrize("name", list(_one_channel_entry_points()))
    def test_same_as_one_column(self, name):
        entry = _one_channel_entry_points()[name]
        rng = np.random.default_rng(7)
        u = rng.standard_normal(500)
        y = (np.convolve(u, [0.5, 0.3, 0.1])[:500]
             + 0.1 * rng.standard_normal(500))
        np.testing.assert_equal(entry(u, y), entry(u[:, None], y[:, None]))
