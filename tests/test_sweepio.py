import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from maicas.calibration import parse_points
from maicas.errors import DomainError
from maicas.jsonio import float_columns
from maicas.readout import S11Sweep, add_noise, s11_spectrum
from maicas.sweepio import (CSV_HEADER, TOUCHSTONE_OPTION_LINE, _grid_text,
                            read_csv, read_sweep, read_touchstone, write_csv,
                            write_sweep, write_touchstone)


@pytest.fixture()
def noisy_sweep(rest_circuit, reader):
    clean = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201)
    return add_noise(clean, 0.2, 9)


class TestTouchstone:
    def test_round_trip_exact(self, noisy_sweep, tmp_path):
        path = tmp_path / "sweep.s1p"
        write_touchstone(noisy_sweep, path)
        again = read_touchstone(path)
        assert again.f_start == noisy_sweep.f_start
        assert again.f_stop == noisy_sweep.f_stop
        assert again.n_points == noisy_sweep.n_points
        assert np.array_equal(again.magnitude_db, noisy_sweep.magnitude_db)

    def test_option_line_written(self, noisy_sweep, tmp_path):
        path = tmp_path / "sweep.s1p"
        write_touchstone(noisy_sweep, path)
        lines = path.read_text().splitlines()
        assert TOUCHSTONE_OPTION_LINE in lines
        assert lines[0].startswith("!")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "hand.s1p"
        path.write_text(
            "! exported by a bench VNA\n\n# HZ S DB R 50\n"
            "1.0e9 -1.0 0.0\n! mid comment\n1.5e9 -9.0 10.0\n2.0e9 -1.5 0.0\n")
        sweep = read_touchstone(path)
        assert sweep.n_points == 3
        assert sweep.magnitude_db[1] == -9.0

    def test_phase_column_optional(self, tmp_path):
        path = tmp_path / "two.s1p"
        path.write_text("# HZ S DB R 50\n1.0e9 -1.0\n1.5e9 -7.0\n2.0e9 -1.0\n")
        assert read_touchstone(path).magnitude_db[1] == -7.0

    @pytest.mark.parametrize("body", [
        "1.0e9 -1.0 0.0\n2.0e9 -2.0 0.0\n",              # no option line
        "# GHZ S DB R 50\n1.0 -1.0 0.0\n2.0 -2.0 0.0\n",  # wrong unit token
        "# HZ S RI R 50\n1.0e9 -1.0 0.0\n2.0e9 -2.0 0.0\n",  # wrong format
        "# HZ S DB R 50\n1.0e9\n2.0e9\n",                 # magnitude missing
        "# HZ S DB R 50\n1.0e9 -1.0 0.0\n",               # single point
        "# HZ S DB R 50\n1.0e9 -1.0 0.0\n1.4e9 -2.0 0.0\n2.0e9 -1.0 0.0\n",
        "# HZ S DB R 50\napple -1.0 0.0\n2.0e9 -2.0 0.0\n",
        "# HZ S DB R 50\n1.0e9 -1.0 0.0\n1.5e9 nan 0.0\n2.0e9 -1.0 0.0\n",
        "# HZ S DB R 50\n1.0e9 -1.0 0.0\nnan -9.0 0.0\n2.0e9 -1.0 0.0\n",
        "",
    ])
    def test_rejects_malformed(self, body, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text(body)
        with pytest.raises(DomainError):
            read_touchstone(path)


class TestCsv:
    def test_round_trip_exact(self, noisy_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(noisy_sweep, path)
        again = read_csv(path)
        assert again.n_points == noisy_sweep.n_points
        assert np.array_equal(again.magnitude_db, noisy_sweep.magnitude_db)
        assert again.f_start == noisy_sweep.f_start

    def test_header_line(self, noisy_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(noisy_sweep, path)
        assert path.read_text().splitlines()[0] == CSV_HEADER

    @pytest.mark.parametrize("comment", ["# note", "   # indented note"])
    def test_comment_lines_skipped(self, noisy_sweep, tmp_path, comment):
        """A line that starts with '#' once stripped is a comment, wherever
        it stands, as in points files."""
        path = tmp_path / "sweep.csv"
        write_csv(noisy_sweep, path)
        lines = path.read_text().splitlines()
        lines[3:3] = [comment]
        path.write_text("\n".join([comment, *lines, comment]) + "\n")
        again = read_csv(path)
        assert np.array_equal(again.magnitude_db, noisy_sweep.magnitude_db)

    @pytest.mark.parametrize("body", [
        "frequency_hz\n1.0e9\n2.0e9\n",
        "frequency_hz,magnitude_db\n1.0e9,-1.0\n",
        "frequency_hz,magnitude_db\n1.0e9,-1.0\n1.2e9,-2.0\n2.0e9,-1.0\n",
        "frequency_hz,magnitude_db\n1.0e9,abc\n2.0e9,-1.0\n",
        "frequency_hz,magnitude_db\n1.0e9,-1.0\n1.5e9,nan\n2.0e9,-1.0\n",
        "frequency_hz,magnitude_db\n1.0e9,-1.0\n1.5e9,-inf\n2.0e9,-1.0\n",
        "frequency_hz,magnitude_db\n1.0e9,-1.0\nnan,-9.0\n2.0e9,-1.0\n",
        "",
    ])
    def test_rejects_malformed(self, body, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DomainError):
            read_csv(path)


class TestUnreadableRefused:
    """A sweep read_sweep would refuse is never written: the writer names
    the file and the first bad row before it opens the file."""

    @pytest.mark.parametrize("name", ["a.s1p", "a.csv", "a.S1P"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_magnitude(self, noisy_sweep, tmp_path, name, bad):
        mags = noisy_sweep.magnitude_db.copy()
        mags[[6, 9]] = bad
        sweep = S11Sweep(noisy_sweep.f_start, noisy_sweep.f_stop,
                         noisy_sweep.n_points, mags)
        path = tmp_path / name
        with pytest.raises(DomainError) as excinfo:
            write_sweep(sweep, path)
        assert str(excinfo.value) == (
            f"cannot write {path}: non-finite value in data row 7")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", [write_touchstone, write_csv])
    def test_non_finite_frequency(self, tmp_path, writer):
        """A NaN start frequency is refused when the sweep is built, so
        there is nothing for the writer to write."""
        with pytest.raises(DomainError, match="need 0 < f_start < f_stop"):
            writer(S11Sweep(float("nan"), 2.0e9, 3, np.zeros(3)),
                   tmp_path / "a.dat")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name,reference", [
        ("a.s1p", oracles.reference_touchstone_text),
        ("a.csv", oracles.reference_csv_text)])
    def test_grid_below_float_spacing(self, tmp_path, name, reference):
        """Three points over one float step repeat a frequency: the file
        the per-row writer made is one read_sweep refuses."""
        sweep = S11Sweep(1.0, 1.0000000000000002, 3, np.zeros(3))
        message = "frequency column is not a uniform ascending grid"
        path = tmp_path / name
        path.write_text(reference(sweep))
        with pytest.raises(DomainError, match=message):
            read_sweep(path)
        path.unlink()
        with pytest.raises(DomainError) as excinfo:
            write_sweep(sweep, path)
        assert str(excinfo.value) == f"cannot write {path}: {message}"
        assert list(tmp_path.iterdir()) == []


class TestSuffixDispatch:
    @pytest.mark.parametrize("name", ["a.s1p", "a.csv", "a.S1P", "a.CSV"])
    def test_round_trip_by_suffix(self, noisy_sweep, tmp_path, name):
        path = tmp_path / name
        write_sweep(noisy_sweep, path)
        again = read_sweep(path)
        assert np.array_equal(again.magnitude_db, noisy_sweep.magnitude_db)

    def test_unknown_suffix(self, noisy_sweep, tmp_path):
        with pytest.raises(DomainError):
            write_sweep(noisy_sweep, tmp_path / "a.json")
        with pytest.raises(DomainError):
            read_sweep(tmp_path / "a.json")


# Passive finite magnitudes, with the values whose shortest repr is least
# like the others: signed zero, the smallest subnormal, the most negative
# normal magnitude, a tiny positive one still under the passivity limit,
# and integer-valued floats.
_MAGNITUDES = (st.floats(max_value=1e-9, allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 0.0, -5e-324, -1e308, 1e-10])
               | st.integers(-10**6, 0).map(float))
_FREQUENCIES = st.floats(min_value=5e-324, max_value=1e308)


@st.composite
def valid_sweeps(draw):
    f_start = draw(_FREQUENCIES)
    f_stop = draw(st.floats(min_value=f_start, max_value=1.7e308,
                            exclude_min=True))
    mags = draw(st.lists(_MAGNITUDES, min_size=2, max_size=40))
    # a first step below the float spacing is refused: TestUnreadableRefused
    assume(np.linspace(f_start, f_stop, len(mags))[1] > f_start)
    return S11Sweep(f_start, f_stop, len(mags), np.array(mags))


class TestWrittenBytes:
    """The writers' bytes are those of their per-row reference loops."""

    @settings(max_examples=300, deadline=None)
    @given(sweep=valid_sweeps())
    def test_touchstone_bytes(self, sweep, tmp_path_factory):
        path = tmp_path_factory.mktemp("bytes") / "sweep.s1p"
        write_touchstone(sweep, path)
        assert path.read_bytes() == oracles.reference_touchstone_text(sweep).encode()

    @settings(max_examples=300, deadline=None)
    @given(sweep=valid_sweeps())
    def test_csv_bytes(self, sweep, tmp_path_factory):
        path = tmp_path_factory.mktemp("bytes") / "sweep.csv"
        write_csv(sweep, path)
        assert path.read_bytes() == oracles.reference_csv_text(sweep).encode()


class TestGridText:
    """The frequency column's text is kept for the last grid written; each
    file is still the per-row reference's text."""

    _REFERENCE = {".s1p": oracles.reference_touchstone_text,
                  ".csv": oracles.reference_csv_text}

    @pytest.mark.parametrize("suffix", [".s1p", ".csv"])
    def test_grid_changes_keep_reference_bytes(self, rest_circuit, reader,
                                               tmp_path, suffix):
        grid_a, grid_b = (1.5e9, 2.0e9, 201), (1.6e9, 1.8e9, 101)
        for k, grid in enumerate([grid_a, grid_a, grid_b, grid_a]):
            sweep = add_noise(s11_spectrum(rest_circuit, reader, *grid), 0.2, k)
            path = tmp_path / f"{k}{suffix}"
            write_sweep(sweep, path)
            assert path.read_text() == self._REFERENCE[suffix](sweep)

    @pytest.mark.parametrize("suffix", [".s1p", ".csv"])
    def test_float32_grid_is_its_own_entry(self, tmp_path, suffix):
        """Equal endpoints in float32 and float64 give linspaces that
        differ in the last bits, so neither grid's text is reused for the
        other."""
        start, stop = np.float32(3.4280803), np.float32(6.732655)
        for k, (a, b) in enumerate([(start, stop), (float(start), float(stop)),
                                    (start, stop)]):
            sweep = S11Sweep(a, b, 17, np.zeros(17))
            path = tmp_path / f"{k}{suffix}"
            write_sweep(sweep, path)
            assert path.read_text() == self._REFERENCE[suffix](sweep)

    def test_refused_grid_is_not_kept(self, noisy_sweep, tmp_path):
        """A grid below the float spacing is refused each time with the
        same message and leaves the last good grid's entry in place."""
        _grid_text.cache_clear()
        write_csv(noisy_sweep, tmp_path / "good.csv")
        bad = S11Sweep(1.0, 1.0000000000000002, 3, np.zeros(3))
        path = tmp_path / "bad.csv"
        messages = []
        for _ in range(2):
            with pytest.raises(DomainError) as excinfo:
                write_csv(bad, path)
            messages.append(str(excinfo.value))
        assert messages == [f"cannot write {path}: frequency column is not "
                            "a uniform ascending grid"] * 2
        assert _grid_text.cache_info()[:2] == (0, 1)  # hits, misses
        write_csv(noisy_sweep, tmp_path / "again.csv")
        assert _grid_text.cache_info()[:2] == (1, 1)

    def test_one_entry(self):
        assert _grid_text.cache_info().maxsize == 1


class TestErrorPrecedence:
    """Which error a file with several faults reports, word for word."""

    @pytest.mark.parametrize("name,body,message", [
        ("a.s1p", "# HZ S DB R 50\n1.0e9\napple -1.0 0.0\n",
         "malformed data row '1.0e9'"),
        ("a.s1p", "# HZ S DB R 50\napple -1.0 0.0\n1.0e9\n",
         "non-numeric data row 'apple -1.0 0.0'"),
        ("a.csv", "frequency_hz,magnitude_db\n1.0e9\n1.5e9,abc\n",
         "malformed data row '1.0e9'"),
        ("a.csv", "frequency_hz,magnitude_db\n1.5e9,abc\n1.0e9\n",
         "non-numeric data row '1.5e9,abc'"),
        # an option line is checked before any data row, wherever it stands
        ("a.s1p", "1.0e9\n# GHZ S DB R 50\n",
         "unsupported Touchstone options '# GHZ S DB R 50'"),
        ("a.s1p", "apple -1.0 0.0 ! note\n  # HZ S RI R 50 ! note\n",
         "unsupported Touchstone options '# HZ S RI R 50'"),
        # a bad row is reported before the missing option line
        ("a.s1p", "1.0e9 -1.0 0.0\n1.5e9 x 0.0\n",
         "non-numeric data row '1.5e9 x 0.0'"),
        ("a.s1p", "1.0e9 -1.0 0.0\n1.5e9 -1 0 0\n",
         "malformed data row '1.5e9 -1 0 0'"),
        ("a.s1p", "1.0e9 -1.0 0.0\n2.0e9 -1.0 0.0\n",
         "missing Touchstone option line"),
        # a bad row is reported before a non-finite one
        ("a.csv", "frequency_hz,magnitude_db\n1.0e9,nan\n1.5e9,?\n",
         "non-numeric data row '1.5e9,?'"),
    ])
    def test_sweep_files(self, tmp_path, name, body, message):
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(DomainError) as excinfo:
            read_sweep(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("body,message", [
        ("x,y_hz\n1\n2,abc\n", "malformed data row '1'"),
        ("x,y_hz\n2,abc\n1\n", "non-numeric data row '2,abc'"),
        ("x,y_hz\n0,nan\n1,2,3\n", "malformed data row '1,2,3'"),
    ])
    def test_points_csv(self, body, message):
        with pytest.raises(DomainError) as excinfo:
            parse_points(body, "pts.csv")
        assert str(excinfo.value) == f"pts.csv: {message}"


def _outcome(reader, lines, **kwargs) -> str:
    """The columns' repr (so NaN equals NaN and -0.0 differs from 0.0), or
    the error message."""
    try:
        return repr(reader(lines, "src", **kwargs))
    except DomainError as exc:
        return str(exc)


_FIELDS = st.sampled_from(["1.5", "-2", "1e9", "-0.0", "nan", "-inf", "7_0",
                           " 3 ", "abc", "", "#", "0x1"])


@st.composite
def numeric_files(draw):
    """Lines for float_columns with its settings: a run of good rows long
    enough to cross whole blocks, with a few arbitrary rows mixed in."""
    sep, widths = draw(st.sampled_from([(",", (2,)), (None, (2, 3))]))
    joiner = sep or draw(st.sampled_from([" ", "\t", "  "]))
    lines = [joiner.join([f"{i}.25", f"-{i}", "0.0"][:widths[i % len(widths)]])
             for i in range(draw(st.integers(0, 700)))]
    for _ in range(draw(st.integers(0, 4))):
        row = joiner.join(draw(st.lists(_FIELDS, max_size=4)))
        lines.insert(draw(st.integers(0, len(lines))), row)
    header = draw(st.sampled_from([None, "x,y"]))
    if header is not None:
        lines.insert(0, draw(st.sampled_from(["x,y", "x, y", "y,x"])))
    return lines, {"header": header, "sep": sep, "widths": widths}


class TestFloatColumns:
    """float_columns gives the columns, or the error message, of the reader
    that converted one row at a time."""

    @settings(max_examples=300, deadline=None)
    @given(case=numeric_files())
    def test_matches_per_row_reader(self, case):
        lines, kwargs = case
        assert (_outcome(float_columns, lines, **kwargs)
                == _outcome(oracles.reference_float_columns, lines, **kwargs))

    @pytest.mark.parametrize("bad", [0, 255, 256, 257, 511, 512, 600])
    def test_first_bad_row_in_any_block(self, bad):
        lines = [f"{i},{-i}" for i in range(700)]
        lines[bad] = "oops"
        lines[bad + 40] = "1,x"
        with pytest.raises(DomainError) as excinfo:
            float_columns(lines, "src", sep=",")
        assert str(excinfo.value) == "src: malformed data row 'oops'"
