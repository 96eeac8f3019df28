import numpy as np
import pytest

from maicas.errors import DomainError
from maicas.readout import add_noise, s11_spectrum
from maicas.sweepio import (CSV_HEADER, TOUCHSTONE_OPTION_LINE, read_csv,
                            read_sweep, read_touchstone, write_csv,
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
