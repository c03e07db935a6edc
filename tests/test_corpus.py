"""Manifest, label-hierarchy, and RTTM round-trip behavior."""

import numpy as np
import pytest

from cogspeech.corpus import (
    CERAD_BINARY_THRESHOLD, LabelHierarchy, Manifest, Segment, SessionRecord,
    Timeline, load_manifest, parse_rttm, serialize_rttm, validate_hierarchy,
)
from cogspeech.errors import ParseError, ValidationError


def test_segment_end_and_validation():
    seg = Segment("A", 1.0, 2.5)
    assert seg.end == 3.5
    with pytest.raises(ValidationError):
        Segment("A", -0.1, 1.0)
    with pytest.raises(ValidationError):
        Segment("A", 0.0, 0.0)
    with pytest.raises(ValidationError):
        Segment("A", float("nan"), 1.0)


def test_timeline_sorts_and_rejects_same_speaker_overlap():
    tl = Timeline.from_segments([Segment("B", 5.0, 1.0), Segment("A", 0.0, 2.0)])
    assert [s.onset for s in tl] == [0.0, 5.0]
    # cross-speaker overlap is fine
    Timeline.from_segments([Segment("A", 0.0, 2.0), Segment("B", 1.0, 2.0)])
    with pytest.raises(ValidationError):
        Timeline.from_segments([Segment("A", 0.0, 2.0), Segment("A", 1.0, 2.0)])


def test_rttm_roundtrip_millisecond_precision():
    tl = Timeline.from_segments([
        Segment("PAR", 0.48, 2.125),
        Segment("INV", 3.0, 1.001),
        Segment("PAR", 4.5, 0.01),
    ])
    text = serialize_rttm(tl, recording_id="sess1")
    back = parse_rttm(text)
    assert len(back) == 3
    for a, b in zip(tl, back):
        assert a.speaker == b.speaker
        assert a.onset == pytest.approx(b.onset, abs=5e-4)
        assert a.duration == pytest.approx(b.duration, abs=5e-4)


def test_parse_rttm_errors_carry_line_numbers():
    good = 'SPEAKER rec 1 0.000 1.000 <NA> <NA> A <NA> <NA>'
    with pytest.raises(ParseError) as err:
        parse_rttm(good + "\nSPEAKER rec 1 zero 1.0 <NA> <NA> A <NA> <NA>")
    assert "2" in str(err.value)
    with pytest.raises(ParseError):
        parse_rttm("SPKR rec 1 0.0 1.0 <NA> <NA> A <NA> <NA>")
    with pytest.raises(ParseError):
        parse_rttm("SPEAKER rec 1 0.0 1.0 A")
    with pytest.raises(ValidationError) as err:
        parse_rttm("SPEAKER rec 1 0.0 -1.0 <NA> <NA> A <NA> <NA>")
    assert "line 1" in str(err.value)


def test_parse_rttm_skips_comments_and_blanks():
    text = "; header comment\n\nSPEAKER rec 1 0.5 1.5 <NA> <NA> X <NA> <NA>\n"
    tl = parse_rttm(text)
    assert tl.speakers() == ("X",)


def _manifest_text(rows, header="# domain_range = 40, 160\n"):
    cols = ("session_id,subject_id,group,task,split,audio_path,sample_rate,"
            "pf,vf,rl,rw,bnt,mmse,lan,mem,exe,vis,cerad_total,cerad_binary,mci")
    return header + cols + "\n" + "\n".join(rows) + "\n"


GOOD_ROW = ("s1_MMSE,s1,HC,MMSE,development,audio/s1.wav,16000,"
            "15,18,50,45,13,28,100,101,99,102,90,1,0")


def test_load_manifest_parses_header_and_labels(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(_manifest_text([GOOD_ROW]))
    man = load_manifest(p)
    assert man.domain_range == (40.0, 160.0)
    rec = man[0]
    assert rec.task == "MMSE" and rec.split == "development"
    assert rec.labels.level1["PF"] == 15.0
    assert rec.labels.level2["LAN"] == 100.0
    assert rec.labels.cerad_total == 90.0
    assert rec.labels.mci == 0


def test_load_manifest_derives_binary_from_total(tmp_path):
    row = GOOD_ROW.replace(",90,1,0", ",80,,0")
    p = tmp_path / "m.csv"
    p.write_text(_manifest_text([row]))
    rec = load_manifest(p)[0]
    assert rec.labels.cerad_binary == 0  # 80 < 85
    row2 = GOOD_ROW.replace(",90,1,0", ",85,,0")
    p.write_text(_manifest_text([row2]))
    assert load_manifest(p)[0].labels.cerad_binary == 1  # threshold inclusive


def test_load_manifest_rejections(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(_manifest_text([GOOD_ROW, GOOD_ROW]))
    with pytest.raises(ValidationError, match="duplicate"):
        load_manifest(p)
    p.write_text(_manifest_text([GOOD_ROW.replace("MMSE,dev", "XX,dev")]))
    with pytest.raises(ParseError):
        load_manifest(p)
    # HC group with mci=1 contradicts
    p.write_text(_manifest_text([GOOD_ROW.replace(",90,1,0", ",90,1,1")]))
    with pytest.raises(ValidationError, match="contradicts"):
        load_manifest(p)
    p.write_text("")
    with pytest.raises(ParseError):
        load_manifest(p)


@pytest.mark.parametrize("header", ["# domain_range=abc\n",
                                    "# domain_range=0\n",
                                    "# domain_range=0,1,2\n",
                                    # reversed, empty or non-finite
                                    "# domain_range = 160, 40\n",
                                    "# domain_range = 40, 40\n",
                                    "# domain_range = nan, 40\n",
                                    "# domain_range = 40, inf\n"])
def test_malformed_domain_range_header_is_parse_error(tmp_path, header):
    p = tmp_path / "m.csv"
    p.write_text("# site=a\n" + _manifest_text([GOOD_ROW], header=header))
    with pytest.raises(ParseError) as err:
        load_manifest(p)
    assert err.value.line_number == 2
    assert "domain_range" in str(err.value)


def _record(sid, subject, group="HC", split="development", **labels):
    defaults = dict(level1={}, level2={}, cerad_total=None, cerad_binary=None,
                    mci=0 if group == "HC" else 1)
    defaults.update(labels)
    return SessionRecord(
        session_id=sid, subject_id=subject, group=group, task="MMSE",
        audio_path=f"{sid}.wav", sample_rate=16000,
        labels=LabelHierarchy(**defaults), split=split)


def test_validate_hierarchy_binary_threshold():
    rec = _record("a_1", "a", cerad_total=84.0, cerad_binary=1)
    issues = validate_hierarchy([rec])
    assert any(i.code == "binary_threshold_mismatch" for i in issues)
    ok = _record("a_1", "a", cerad_total=CERAD_BINARY_THRESHOLD, cerad_binary=1)
    assert not validate_hierarchy([ok])


def test_validate_hierarchy_ranges_and_split_leakage():
    bad_mmse = _record("a_1", "a", level1={"MMSE": 31.0})
    bad_pf = _record("b_1", "b", level1={"PF": -1.0})
    bad_dom = _record("c_1", "c", level2={"LAN": 500.0})
    leak_dev = _record("d_1", "d", split="development")
    leak_ho = _record("d_2", "d", split="holdout")
    issues = validate_hierarchy(
        [bad_mmse, bad_pf, bad_dom, leak_dev, leak_ho], domain_range=(40, 160))
    codes = sorted(i.code for i in issues)
    assert codes.count("out_of_range") == 3
    assert "split_leakage" in codes


def test_validate_hierarchy_reads_manifest_domain_range():
    rec = _record("c_1", "c", level2={"LAN": 500.0})
    man = Manifest(records=[rec], domain_range=(40.0, 160.0))
    assert any(i.code == "out_of_range" for i in validate_hierarchy(man))
    wide = Manifest(records=[rec], domain_range=None)
    assert not validate_hierarchy(wide)
