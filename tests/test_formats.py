"""File formats: text system files, JSON mirrors, sequence files."""

import pytest

from pstseq import formats, friendship_chain, random_system, validate_system
from pstseq.errors import InputError


def _same_system(a, b):
    return (
        a.n == b.n
        and sorted(a.labels) == sorted(b.labels)
        and sorted(tuple(a.block_labels(x)) for x in a.blocks)
        == sorted(tuple(b.block_labels(x)) for x in b.blocks)
    )


def test_psts_roundtrip_numeric(tmp_path):
    system = random_system(12, 6, 3)
    path = tmp_path / "sys.psts"
    path.write_text(formats.system_to_psts(system, comment="corpus seed 3"))
    again, _ = formats.load_system(path)
    assert _same_system(system, again)


def test_psts_roundtrip_named_labels(tmp_path):
    system = friendship_chain([2, 2])
    path = tmp_path / "chain.psts"
    path.write_text(formats.system_to_psts(system))
    again, _ = formats.load_system(path)
    assert _same_system(system, again)


def test_json_roundtrip(tmp_path):
    import json

    system = friendship_chain([3, 2])
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(formats.system_to_json_obj(system)))
    again, _ = formats.load_system(path)
    assert _same_system(system, again)


def test_comments_and_blank_lines():
    text = "# header\norder 6\n\n0 1 2  # trailing note\n3 4 5\n"
    system = formats.parse_system_text(text)
    assert system.n == 6
    assert len(system.blocks) == 2


def test_parse_error_carries_line_number():
    with pytest.raises(InputError) as err:
        formats.parse_system_text("order 6\n0 1\n", source="bad.psts")
    assert "bad.psts, line 2" in str(err.value)


def test_missing_header():
    with pytest.raises(InputError):
        formats.parse_system_text("0 1 2\n")


@pytest.mark.parametrize("header", ["order \u00b2", "order --3", "order 3x"])
def test_bad_order_header(header):
    with pytest.raises(InputError) as err:
        formats.parse_system_text(header + "\n0 1 2\n")
    assert "expected 'order N'" in str(err.value)


@pytest.mark.parametrize("text,message", [
    ('{"order": 3, "blocks": 5}', "'blocks' must be a list of lists"),
    ('{"order": 3, "blocks": [5]}', "'blocks' must be a list of lists"),
    ('{"order": true, "blocks": []}', "'order' must be an integer"),
    ('{"order": 3.0, "blocks": []}', "'order' must be an integer"),
    ('{"order": 3, "blocks": [[null, 1, 2]]}', "got None"),
    ('{"order": 3, "blocks": [[false, 1, 2]]}', "got False"),
    ('{"order": 3, "blocks": [[[0], 1, 2]]}', "got [0]"),
])
def test_malformed_json_system(text, message):
    with pytest.raises(InputError) as err:
        formats.parse_system_json(text)
    assert message in str(err.value)


def test_json_labels_may_mix_strings_and_integers():
    system = formats.parse_system_json('{"order": 4, "blocks": [["a", 1, "2"]]}')
    assert system.labels[:3] == ("a", "1", "2")


def test_sequence_text_and_json():
    system = validate_system(4, [[0, 1, 2]])
    seq = formats.parse_sequence_text("1 2 3 0", system)
    assert seq.entries == (1, 2, 3, 0)
    seq = formats.parse_sequence_text('["1", "2", "3", "0"]', system)
    assert seq.entries == (1, 2, 3, 0)
    assert formats.sequence_to_text(seq, system) == "1 2 3 0\n"


def test_unknown_label_in_sequence():
    system = validate_system(3, [[0, 1, 2]])
    with pytest.raises(InputError):
        formats.parse_sequence_text("0 1 9", system)


def test_load_system_returns_digest_of_bytes_read(tmp_path):
    import hashlib

    data = b"# note\r\norder 3\r\n0 1 2\r\n"
    path = tmp_path / "crlf.psts"
    path.write_bytes(data)
    system, digest = formats.load_system(path)
    assert system.n == 3 and len(system.blocks) == 1
    assert digest == hashlib.sha256(data).hexdigest()


def test_json_error_line_counts_carriage_returns(tmp_path):
    # Newlines are read as in text mode, so a lone "\r" ends a line.
    path = tmp_path / "cr.json"
    path.write_bytes(b'{"order": 3,\r"blocks": [["0", "1" "2"]]}')
    with pytest.raises(InputError) as err:
        formats.load_system(path)
    assert f"{path}, line 2: invalid JSON" in str(err.value)

