"""Reference dataset loading, validation and comparison tests."""

import csv
import re
from pathlib import Path

import pytest

from yukawa_atom import (
    SHELL_QUANTUM_NUMBERS,
    MissingReference,
    ParseError,
    QuantumState,
    ReferenceSource,
    ScreeningModel,
    compare,
    energy_breakdown,
    load_reference,
    screening_delta,
    to_kev,
)
from yukawa_atom import refdata
from yukawa_atom.cli import BUNDLED_Z
from yukawa_atom.refdata import bundled_reference_path


@pytest.fixture(scope="module")
def table1():
    return load_reference(bundled_reference_path("E00"))


@pytest.fixture(scope="module")
def table2():
    return load_reference(bundled_reference_path("E01"))


@pytest.fixture(scope="module")
def table3():
    return load_reference(bundled_reference_path("E10"))


class TestBundledTables:
    def test_table1_shape(self, table1):
        assert len(table1.rows) == 110
        for source in ReferenceSource:
            assert sum(1 for r in table1.rows if r.source == source) == 22

    def test_table2_shape(self, table2):
        assert len(table2.rows) == 16
        assert all(r.source == ReferenceSource.PRESENT_WORK for r in table2.rows)

    def test_table3_shape(self, table3):
        assert len(table3.rows) == 80

    def test_all_energies_negative(self, table1, table2, table3):
        for ds in (table1, table2, table3):
            assert all(r.energy_kev < 0 for r in ds.rows)

    def test_spot_values(self, table1, table2, table3):
        assert table1.get(3, "E00", ReferenceSource.PRESENT_WORK).energy_kev == -0.05405687
        assert table1.get(84, "E00", ReferenceSource.PRESENT_WORK).energy_kev == -86.629718
        assert table2.get(9, "E01", ReferenceSource.PRESENT_WORK).energy_kev == -0.012158
        assert table3.get(14, "E10", ReferenceSource.PRESENT_WORK).energy_kev == -0.130396
        assert table3.get(9, "E10", ReferenceSource.HYPERVIRIAL_PADE).energy_kev == -0.02206

    def test_transcription_flags(self, table1, table3):
        flagged = table3.get(29, "E10", ReferenceSource.EWA)
        assert flagged.energy_kev == -1.096
        assert "sign corrected" in flagged.notes
        odd = table1.get(59, "E00", ReferenceSource.SHIFTED_N)
        assert odd.energy_kev == -41.56117
        assert odd.notes

    @pytest.mark.parametrize("shell", ["E00", "E01", "E10"])
    def test_rows_keep_printed_fields(self, shell):
        """Each loaded row keeps its line's fields as printed, notes included."""
        path = bundled_reference_path(shell)
        with path.open(encoding="utf-8", newline="") as handle:
            lines = list(csv.reader(handle))[1:]
        rows = load_reference(path).rows
        assert len(rows) == len(lines)
        for row, fields in zip(rows, lines):
            n, l = SHELL_QUANTUM_NUMBERS[row.shell_label]
            loaded = (str(row.z), row.shell_label, str(n), str(l), row.source.value,
                      row.energy_text, row.notes)
            assert loaded == tuple(fields) + ("",) * (7 - len(fields))

    @pytest.mark.parametrize("shell", ["E00", "E01", "E10"])
    def test_paper_z_list_matches_table(self, shell):
        dataset = load_reference(bundled_reference_path(shell))
        assert BUNDLED_Z[shell] == tuple(sorted({r.z for r in dataset.rows}))

    def test_e11_paper_z_list_is_e10s(self):
        assert BUNDLED_Z["E11"] == BUNDLED_Z["E10"]

    def test_no_reference_for_e11(self):
        for _ in range(2):
            with pytest.raises(MissingReference):
                bundled_reference_path("E11")

    def test_path_resolved_once_file_read_every_load(self, monkeypatch):
        assert bundled_reference_path("E00") is bundled_reference_path("E00")
        reads = []
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        for _ in range(2):
            load_reference(bundled_reference_path("E00"))
        assert reads == [bundled_reference_path("E00")] * 2


class TestLoaderValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_reference(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("zz,shell\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_reference(path)

    def test_bad_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "z,shell,n,l,source,energy_kev\n"
            "3,E00,0,0,present_work,-0.054\n"
            "x,E00,0,0,present_work,-0.1\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_reference(path)
        assert excinfo.value.line == 3

    def test_unknown_source(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "z,shell,n,l,source,energy_kev\n3,E00,0,0,guesswork,-0.054\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError):
            load_reference(path)

    def test_shell_quantum_number_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "z,shell,n,l,source,energy_kev\n3,E00,1,0,present_work,-0.054\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError):
            load_reference(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "z,shell,n,l,source,energy_kev\n"
            "3,E00,0,0,present_work,-0.054\n"
            "3,E00,0,0,present_work,-0.055\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_reference(path)
        assert excinfo.value.line == 3
        assert str(excinfo.value) == \
            "line 3: duplicate key z=3, shell=E00, source=present_work"

    def test_sign_violation(self, tmp_path):
        path = tmp_path / "pos.csv"
        path.write_text(
            "z,shell,n,l,source,energy_kev\n3,E00,0,0,present_work,0.054\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_reference(path)
        assert excinfo.value.line == 2
        assert str(excinfo.value) == ("line 2: energy_kev must be negative, got 0.054 "
                                      "(z=3, shell=E00, source=present_work)")

    def test_six_column_row_accepted_without_notes(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text(
            "z,shell,n,l,source,energy_kev\n3,E00,0,0,present_work,-0.05405687\n",
            encoding="utf-8",
        )
        ds = load_reference(path)
        assert ds.rows[0].notes == ""

    def test_quoted_note_keeps_its_comma(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(f'{_HEADER},notes\n{_GOOD_ROW},"a, b"\n', encoding="utf-8")
        assert [r.notes for r in load_reference(path).rows] == ["a, b"]

    def test_field_past_csv_limit_is_parse_error(self, tmp_path):
        # csv.reader refuses a field longer than its limit with csv.Error
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text(f"{_HEADER},notes\n{_GOOD_ROW},{'x' * (limit + 1)}\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_reference(path)
        assert excinfo.value.line == 2
        assert str(excinfo.value) == f"line 2: field larger than field limit ({limit})"


_HEADER = "z,shell,n,l,source,energy_kev"
_GOOD_ROW = "3,E00,0,0,present_work,-0.054"


class TestMalformedLines:
    """Each loader error carries the number of the offending line."""

    @pytest.mark.parametrize("text, line, message", [
        (f"{_HEADER},comment\n{_GOOD_ROW}\n", 1, "unsupported extra columns ['comment']"),
        (f"{_HEADER}\n{_GOOD_ROW}\n4,E00,0,0,present_work\n", 3, "expected 6 fields, got 5"),
        (f"{_HEADER}\n{_GOOD_ROW}\n4,E00,0,0,present_work,-0.1,note\n", 3,
         "expected 6 fields, got 7"),
        (f"{_HEADER}\n{_GOOD_ROW}\n4,E22,0,0,present_work,-0.1\n", 3,
         "unknown shell label 'E22'"),
        (f"{_HEADER}\n{_GOOD_ROW}\n0,E00,0,0,present_work,-0.1\n", 3,
         "atomic number must be positive, got 0"),
        (f"{_HEADER}\n{_GOOD_ROW}\n4,E00,0,0,present_work,-inf\n", 3,
         "energy_kev must be finite, got -inf"),
        (f"{_HEADER}\n{_GOOD_ROW}\n4,E00,0,0,present_work,-1e400\n", 3,
         "energy_kev must be finite, got -1e400"),
        (f"{_HEADER}\n{_GOOD_ROW}\n4,E00,0,0,present_work,nan\n", 3,
         "energy_kev must be finite, got nan"),
        (f"{_HEADER}\n{_GOOD_ROW}\n,,,,,\n", 3, "invalid literal for int() with base 10: ''"),
    ], ids=["extra-column", "too-few-fields", "notes-without-header", "unknown-shell", "z-below-1",
            "minus-inf", "overflow-to-minus-inf", "nan", "empty-fields"])
    def test_reports_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_reference(path)
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: {message}"

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(f"{_HEADER}\n{_GOOD_ROW}\n  \n4,E00,0,0,present_work,-0.1\n",
                        encoding="utf-8")
        ds = load_reference(path)
        assert [r.z for r in ds.rows] == [3, 4]


class TestCompare:
    def test_identity_comparison(self, table2):
        computed = [
            (r.z, r.shell_label, r.energy_kev)
            for r in table2.rows
        ]
        rows, summary = compare(table2, computed, ReferenceSource.PRESENT_WORK)
        assert summary["max_abs_diff"] == 0.0
        assert summary["max_rel_diff"] == 0.0
        assert [r["z"] for r in rows] == sorted(r["z"] for r in rows)

    def test_missing_reference(self, table2):
        with pytest.raises(MissingReference):
            compare(table2, [(10, "E01", -0.02)], ReferenceSource.PRESENT_WORK)

    def test_regenerated_table1_column(self, table1):
        model = ScreeningModel()
        state = QuantumState(0, 0)
        z_values = sorted({r.z for r in table1.rows})
        computed = [
            (z, "E00", to_kev(energy_breakdown(float(z), state, screening_delta(z, model)).total))
            for z in z_values
        ]
        rows, summary = compare(table1, computed, ReferenceSource.PRESENT_WORK)
        assert len(rows) == 22
        assert summary["max_rel_diff"] < 1e-4

    def test_rows_and_summary(self, table1):
        rows, summary = compare(table1, [(84, "E00", -86.0), (3, "E00", -0.05)],
                                ReferenceSource.PRESENT_WORK)
        assert [(r["z"], r["shell"], r["computed_kev"], r["reference_kev"]) for r in rows] == \
            [(3, "E00", -0.05, -0.05405687), (84, "E00", -86.0, -86.629718)]
        for r in rows:
            assert r["abs_diff_kev"] == abs(r["computed_kev"] - r["reference_kev"])
            assert r["rel_diff"] == r["abs_diff_kev"] / abs(r["reference_kev"])
        assert summary == {"max_abs_diff": rows[1]["abs_diff_kev"],
                           "max_rel_diff": rows[0]["rel_diff"], "worst_z": 3}

    def test_empty_computed(self, table1):
        # a comparison of nothing would pass any tolerance
        with pytest.raises(MissingReference, match="nothing computed to compare"):
            compare(table1, [], ReferenceSource.PRESENT_WORK)


@pytest.fixture
def parses(monkeypatch):
    """Count the loader's parses (each builds one ``csv.reader``) from an
    empty parse cache on."""
    refdata._parse.cache_clear()
    count = [0]
    reader = csv.reader

    def counting(*args, **kwargs):
        count[0] += 1
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting)
    return count


class TestParseCache:
    """The file is read on every load; its text is parsed once."""

    def test_same_content_parsed_once(self, tmp_path, parses):
        path = tmp_path / "ref.csv"
        path.write_text(f"{_HEADER}\n{_GOOD_ROW}\n", encoding="utf-8")
        first = load_reference(path)
        copy = tmp_path / "copy.csv"
        copy.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        assert load_reference(path) is first
        assert load_reference(copy) is first
        assert parses[0] == 1

    def test_rewritten_content_parsed_again(self, tmp_path, parses):
        path = tmp_path / "ref.csv"
        path.write_text(f"{_HEADER}\n{_GOOD_ROW}\n", encoding="utf-8")
        assert [r.energy_kev for r in load_reference(path).rows] == [-0.054]
        path.write_text(f"{_HEADER}\n3,E00,0,0,present_work,-0.055\n", encoding="utf-8")
        assert [r.energy_kev for r in load_reference(path).rows] == [-0.055]
        assert parses[0] == 2

    def test_malformed_file_raises_on_every_load(self, tmp_path, parses):
        path = tmp_path / "bad.csv"
        path.write_text(f"{_HEADER}\n{_GOOD_ROW}\n4,E22,0,0,present_work,-0.1\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ParseError) as excinfo:
                load_reference(path)
            assert excinfo.value.line == 3
            assert str(excinfo.value) == "line 3: unknown shell label 'E22'"
        assert parses[0] == 2

    def test_missing_file_raises_the_open_error(self, tmp_path, parses):
        # also once its text has been parsed: the file is read on every load
        path = tmp_path / "gone.csv"
        path.write_text(f"{_HEADER}\n{_GOOD_ROW}\n", encoding="utf-8")
        load_reference(path)
        path.unlink()
        with pytest.raises(FileNotFoundError) as excinfo:
            load_reference(path)
        assert str(excinfo.value) == f"[Errno 2] No such file or directory: '{path}'"

    def test_field_size_limit_is_part_of_the_key(self, tmp_path, parses):
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text(f"{_HEADER},notes\n{_GOOD_ROW},{'x' * (limit + 1)}\n", encoding="utf-8")
        try:
            csv.field_size_limit(limit + 1)
            assert len(load_reference(path).rows[0].notes) == limit + 1
        finally:
            csv.field_size_limit(limit)
        with pytest.raises(ParseError, match=re.escape(f"field larger than field limit ({limit})")):
            load_reference(path)

    def test_shared_dataset_is_read_only(self):
        dataset = load_reference(bundled_reference_path("E00"))
        key = (3, "E00", ReferenceSource.PRESENT_WORK)
        with pytest.raises(TypeError):
            dataset._index[key] = None
        with pytest.raises(TypeError):
            del dataset._index[key]
        assert isinstance(dataset.rows, tuple)
        assert dataset.get(*key).energy_kev == -0.05405687
