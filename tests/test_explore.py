import json

import pytest
from oracles import enumerate_filtered, wc_counts

from afftl.cells import census, labelled_elements
from afftl.config import GroupConfig
from afftl.diagrams import canonical_key
from afftl.explore import element_cap, enumerate_elements, oracle_counts


class TestCounts:
    def test_base_cases(self):
        assert wc_counts(GroupConfig(3), 1) == {0: 1, 1: 3}
        assert wc_counts(GroupConfig(4), 2)[2] == 10

    def test_matches_oracle(self):
        for n in (3, 4, 5):
            cfg = GroupConfig(n)
            assert wc_counts(cfg, 8) == oracle_counts(cfg, 8)

    @pytest.mark.parametrize(
        "n, start, period, horizon",
        [
            (3, 2, (6,), 24),
            (4, 3, (16, 18), 24),
            (5, 5, (50,), 22),
            (6, 7, (150, 156, 152, 156, 150, 158), 20),
        ],
    )
    def test_periodic_tails(self, n, start, period, horizon):
        # FC counts per length are eventually periodic (Hanusa & Jones 2010,
        # "The enumeration of fully commutative affine permutations"), checked
        # here on both enumerations
        for counts in (wc_counts(GroupConfig(n), horizon), oracle_counts(GroupConfig(n), horizon)):
            assert set(counts) == set(range(horizon + 1))
            for length in range(start, horizon + 1):
                assert counts[length] == period[(length - start) % len(period)], length

    def test_each_element_once(self):
        cfg = GroupConfig(4)
        keys = [canonical_key(r.diagram) for r in enumerate_elements(cfg, 6)]
        assert len(keys) == len(set(keys))


class TestEnumerate:
    def test_records(self):
        cfg = GroupConfig(4)
        recs = list(labelled_elements(cfg, 3))
        assert recs[0].word == () and recs[0].length == 0 and recs[0].is_involution
        for rec in recs:
            assert rec.length == len(rec.word)
            assert rec.labels is not None

    def test_order_independent_key_set(self):
        # the filtered enumeration in the reversed generator order reaches
        # the same elements
        cfg = GroupConfig(4)
        k1 = {canonical_key(r.diagram) for r in enumerate_elements(cfg, 6)}
        k2 = {canonical_key(d) for _, d, _, _ in enumerate_filtered(cfg, 6, (4, 3, 2, 1))}
        assert k1 == k2

    def test_cap(self, monkeypatch):
        cfg = GroupConfig(4)
        monkeypatch.setenv("AFFTL_MAX_ELEMENTS", "5")
        for run in (lambda: list(enumerate_elements(cfg, 6)), lambda: census(cfg, 6),
                    lambda: oracle_counts(cfg, 6)):
            with pytest.raises(RuntimeError, match="cap of 5 elements"):
                run()
        # 5 elements fit: the identity and the four generators
        assert len(list(enumerate_elements(cfg, 1))) == 5
        assert oracle_counts(cfg, 1) == {0: 1, 1: 4}

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("AFFTL_MAX_ELEMENTS", "123")
        assert element_cap() == 123
        monkeypatch.delenv("AFFTL_MAX_ELEMENTS")
        assert element_cap() == 10**7
        monkeypatch.setenv("AFFTL_MAX_ELEMENTS", "0")
        assert element_cap() == 0
        cfg = GroupConfig(4)
        # a cap of 0 admits no element, the identity included
        for run in (lambda: list(enumerate_elements(cfg, 1)),
                    lambda: list(enumerate_elements(cfg, 0)),
                    lambda: census(cfg, 0), lambda: oracle_counts(cfg, 0)):
            with pytest.raises(RuntimeError, match="cap of 0 elements"):
                run()

    @pytest.mark.parametrize("value", ["abc", "-1", "-0x1", "2.5", "1e3", "²"])
    def test_cap_env_rejects(self, monkeypatch, value):
        monkeypatch.setenv("AFFTL_MAX_ELEMENTS", value)
        with pytest.raises(ValueError, match="AFFTL_MAX_ELEMENTS must be a nonnegative integer"):
            element_cap()

    def test_record_json_roundtrip(self):
        cfg = GroupConfig(4)
        for rec in labelled_elements(cfg, 4):
            obj = json.loads(rec.json_line())
            assert tuple(obj["word"]) == rec.word
            assert obj["length"] == rec.length
            assert obj["is_involution"] == rec.is_involution
            assert obj["labels"]["a"] == rec.labels.a
            assert [tuple(p) for p in obj["labels"]["left_pattern"]] == sorted(
                rec.labels.left_pattern
            )

    def test_negative_horizon(self, monkeypatch):
        # both references raise the same error, before the cap counts the
        # identity
        cfg = GroupConfig(4)
        for cap in ("10", "0"):
            monkeypatch.setenv("AFFTL_MAX_ELEMENTS", cap)
            for run in (lambda: list(enumerate_elements(cfg, -1)), lambda: oracle_counts(cfg, -1)):
                with pytest.raises(ValueError, match="^max_len must be nonnegative$"):
                    run()


def dict_form(rec) -> dict:
    """A record's JSON object as a dict, the form `json_line` formats directly."""
    return {
        "word": list(rec.word),
        "length": rec.length,
        "labels": rec.labels.to_json() if rec.labels else None,
        "is_involution": rec.is_involution,
    }


class TestJsonLine:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("labelled", [False, True], ids=["no-labels", "labels"])
    @pytest.mark.parametrize("max_len", [0, 7])
    def test_equals_json_dumps_of_the_dict(self, n, labelled, max_len):
        records = labelled_elements if labelled else enumerate_elements
        recs = list(records(GroupConfig(n), max_len))
        assert recs[0].word == () and (recs[0].labels is not None) == labelled
        assert max(rec.length for rec in recs) == max_len
        for rec in recs:
            line = rec.json_line()
            assert line == json.dumps(dict_form(rec))
            assert json.dumps(json.loads(line)) == line
