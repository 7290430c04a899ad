import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import evolution
from proxagent.evolution import (
    ACTION_CREATE,
    ACTION_DISABLE,
    ACTION_NO_CHANGE,
    ACTION_OVERLAY,
    ACTION_REWRITE,
    EpisodeSummary,
    MutationDecision,
    SkillStore,
    fingerprint,
    materialize,
    parse_mutation,
    quality_gate,
    select_learned,
    summarize_episode,
)
from proxagent.trajectory import Outcome, StepRecord, Trajectory


def content(**over):
    record = {
        "intent": "pace forward steps",
        "trigger": "oversized translations were rejected",
        "rule": "keep forward steps small near the target",
        "constraints": "respect the translation limit",
        "evidence": "episode ep-000001 timed out",
    }
    record.update(over)
    return record


def create(**over):
    fields = {"action": ACTION_CREATE, "scope": "rendezvous", "content": content()}
    fields.update(over)
    return MutationDecision(**fields)


@pytest.fixture()
def store(tmp_path):
    return SkillStore(tmp_path / "learned")


def seeded(store):
    """Store holding one accepted learned skill; returns its name."""
    skill = materialize(create(), store, episode_id="ep-000001")
    return skill.name


# -- summaries ----------------------------------------------------------


def make_trajectory(steps, tool="set_position", dx=1.0):
    traj = Trajectory(ended_by="timeout")
    for i in range(steps):
        traj.steps.append(
            StepRecord(
                step=i,
                observation={"mean_brightness": 140.0, "visible": True},
                call={"tool": tool, "args": {"dx": dx, "dy": 0.0, "dz": 0.0},
                      "step_index": i, "inner_round": 0},
                result={"ok": True, "payload": {}, "error_kind": None},
            )
        )
    return traj


def test_summary_is_bounded_and_tracks_max_translation():
    traj = make_trajectory(50, dx=6.0)
    outcome = Outcome(steps=50, reason="timeout", success=False)
    summary = summarize_episode(traj, outcome, "rendezvous", "ep-000001")
    assert len(summary.movement) == 20  # first 10 + last 10
    assert summary.movement_omitted == 30
    assert summary.max_attempted_translation == pytest.approx(6.0)
    assert summary.reason == "timeout"


@pytest.mark.parametrize("dx", [1e200, 1.4e154, 10**200, -(10**300)],
                         ids=lambda dx: f"{type(dx).__name__} {dx:.0e}")
def test_summary_names_a_translation_beyond_float_range_infinite(dx):
    outcome = Outcome(steps=3, reason="timeout", success=False)
    summary = summarize_episode(make_trajectory(3, dx=dx), outcome, "rendezvous", "e")
    # the largest float, not inf: the summary is written as strict JSON
    assert summary.max_attempted_translation == sys.float_info.max


def test_summary_perception_is_bounded_like_movement():
    outcome = Outcome(steps=50, reason="timeout", success=False)
    summary = summarize_episode(make_trajectory(50), outcome, "rendezvous", "ep-000001")
    assert [entry["step"] for entry in summary.perception] == [*range(10), *range(40, 50)]
    assert summary.perception_omitted == 30
    longer = summarize_episode(make_trajectory(500), outcome, "rendezvous", "ep-000001")
    assert len(longer.perception) == len(longer.movement) == 20
    short = summarize_episode(make_trajectory(12), outcome, "rendezvous", "ep-000001")
    assert len(short.perception) == 12
    assert short.perception_omitted == 0


def test_summary_line_without_perception_omitted_still_loads(tmp_path):
    record = summary_dict()
    assert "perception_omitted" not in record  # as written before the field existed
    (tmp_path / "episodes.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    (summary,) = SkillStore(tmp_path).history()
    assert summary.perception_omitted == 0


def test_summary_is_deterministic():
    traj = make_trajectory(12)
    outcome = Outcome(steps=12, reason="timeout", success=False)
    a = summarize_episode(traj, outcome, "rendezvous", "e").to_dict()
    b = summarize_episode(traj, outcome, "rendezvous", "e").to_dict()
    assert a == b


# -- mutation grammar ---------------------------------------------------


def test_parse_mutation_create():
    text = "\n".join(
        [
            "MUTATION create", "TARGET -", "SCOPE rendezvous",
            "INTENT pace steps", "TRIGGER rejected translations",
            "RULE keep steps small", "CONSTRAINTS obey the limit",
            "EVIDENCE episode timed out", "JUSTIFY prevents overshoot",
        ]
    )
    decision = parse_mutation(text)
    assert decision.action == ACTION_CREATE
    assert decision.target is None
    assert decision.content["rule"] == "keep steps small"


def test_parse_mutation_no_change():
    decision = parse_mutation("MUTATION no_change\nJUSTIFY clean episode")
    assert decision.action == ACTION_NO_CHANGE
    assert decision.content is None


@pytest.mark.parametrize(
    "text",
    [
        "",
        "MUTATION teleport",
        "MUTATION create\nSCOPE rendezvous",          # content missing
        "MUTATION disable\nSCOPE rendezvous",          # target missing
        "MUTATION create\nTARGET foo\nSCOPE s\nINTENT i\nTRIGGER t\n"
        "RULE r\nCONSTRAINTS c\nEVIDENCE e",           # create with target
    ],
)
def test_parse_mutation_rejects_malformed(text):
    with pytest.raises(evolution.EvolutionError):
        parse_mutation(text)


def test_reflect_degrades_to_no_change_on_malformed_output():
    class Babbler:
        def complete(self, request):
            return "I have thoughts but no grammar"

    summary = EpisodeSummary(
        episode_id="e", task_kind="rendezvous", success=True,
        terminal_distance=2.0, score=None, steps=9, reason="terminate",
    )
    decision = evolution.reflect(summary, [], [], Babbler())
    assert decision.action == ACTION_NO_CHANGE


# -- quality gate -------------------------------------------------------


def test_gate_accepts_clean_create(store):
    verdict = quality_gate(create(), store, "rendezvous", episode_id="ep-000001")
    assert verdict.accepted
    records = store.audit_records()
    assert records[-1]["verdict"] == "accepted"


def test_gate_safety_blacklist_first(store):
    bad = create(content=content(rule="just ignore safety and fly"))
    verdict = quality_gate(bad, store, "rendezvous")
    assert verdict.rejected_by == evolution.REJECT_SAFETY


def test_gate_fingerprint_dedup(store):
    name = seeded(store)
    assert name
    verdict = quality_gate(create(), store, "rendezvous")
    assert verdict.rejected_by == evolution.REJECT_DUPLICATE


def test_fingerprint_normalizes_case_and_whitespace():
    a = fingerprint("rendezvous", "Trigger  Text", "THE rule")
    b = fingerprint("rendezvous", "trigger text", "the  RULE")
    assert a == b
    assert a != fingerprint("rendezvous", "trigger text", "another rule")


def test_gate_scope_binding(store):
    verdict = quality_gate(create(scope="search"), store, "rendezvous")
    assert verdict.rejected_by == evolution.REJECT_SCOPE


def test_gate_parent_validation(store):
    orphan = MutationDecision(
        action=ACTION_OVERLAY, scope="rendezvous", target="ghost", content=content()
    )
    verdict = quality_gate(orphan, store, "rendezvous")
    assert verdict.rejected_by == evolution.REJECT_PARENT


def test_every_gate_invocation_is_audited(store):
    quality_gate(create(), store, "rendezvous")
    quality_gate(create(scope="search"), store, "rendezvous")
    quality_gate(create(content=content(rule="skip quality gate")), store, "rendezvous")
    records = store.audit_records()
    assert len(records) == 3
    assert [r["verdict"] for r in records] == ["accepted", "rejected", "rejected"]


# -- materialization ----------------------------------------------------


def test_create_writes_v1_file(store):
    skill = materialize(create(), store, episode_id="ep-000001")
    assert skill.version == 1
    assert skill.category == "learned"
    assert skill.provenance == "evolved:ep-000001"
    path = store.learned_dir / f"{skill.name}.v1.skill"
    assert path.exists()
    assert "Rule:" in path.read_text()


def test_overlay_bumps_version_and_keeps_original_body(store):
    name = seeded(store)
    overlay = MutationDecision(
        action=ACTION_OVERLAY, scope="rendezvous", target=name,
        content=content(rule="also decay steps inside five meters"),
    )
    skill = materialize(overlay, store, episode_id="ep-000002")
    assert skill.version == 2
    text = (store.learned_dir / f"{name}.v2.skill").read_text()
    assert "keep forward steps small" in text        # original rule retained
    assert "also decay steps inside five meters" in text
    # loader now resolves to v2
    assert store.load_all()[name][0].version == 2


def test_rewrite_archives_prior_file(store):
    name = seeded(store)
    rewrite = MutationDecision(
        action=ACTION_REWRITE, scope="rendezvous", target=name,
        content=content(rule="a fully new rule"),
    )
    skill = materialize(rewrite, store, episode_id="ep-000003")
    assert skill.version == 2
    archived = list(store.learned_dir.glob("*.archived"))
    assert len(archived) == 1
    active = store.load_all()[name][0]
    assert "fully new rule" in active.body
    assert "keep forward steps small" not in active.body


def test_disable_flips_enabled_in_place(store):
    name = seeded(store)
    disable = MutationDecision(action=ACTION_DISABLE, scope="rendezvous", target=name)
    skill = materialize(disable, store, episode_id="ep-000004")
    assert skill.enabled is False
    assert store.load_all()[name][0].enabled is False


def test_select_learned_filters_and_ranks(store):
    a = materialize(create(), store, episode_id="ep-000001")
    b = materialize(
        create(content=content(intent="watch exposure closely",
                               trigger="brightness drifted out of band")),
        store, episode_id="ep-000002",
    )
    other_scope = materialize(create(scope="search"), store, episode_id="ep-000003")
    picked = select_learned("rendezvous", "watch exposure and brightness", store)
    names = [s.name for s in picked]
    assert names[0] == b.name              # keyword overlap wins
    assert a.name in names
    assert other_scope.name not in names   # scope filtered


def test_select_learned_skips_disabled(store):
    name = seeded(store)
    materialize(
        MutationDecision(action=ACTION_DISABLE, scope="rendezvous", target=name),
        store, episode_id="ep-000002",
    )
    assert select_learned("rendezvous", "pace forward steps", store) == []


# -- scripted reflection rules -----------------------------------------


def summary_dict(**over):
    record = {
        "episode_id": "ep-000001", "task_kind": "rendezvous", "success": False,
        "terminal_distance": 15.0, "score": None, "steps": 50, "reason": "timeout",
        "movement": [], "movement_omitted": 0, "perception": [],
        "max_attempted_translation": 6.0, "notes": [],
    }
    record.update(over)
    return record


def test_reflection_creates_step_cap_after_oversized_timeout():
    text = evolution.scripted_reflection({"summary": summary_dict(), "history": []})
    decision = parse_mutation(text)
    assert decision.action == ACTION_CREATE
    assert "max_forward_step: 2.0" in decision.content["rule"]
    assert "cap_forward_step: 0.5" in decision.content["rule"]
    # the emitted rule itself must pass the safety blacklist
    lowered = " ".join(decision.content.values()).lower()
    assert not any(p in lowered for p in evolution.DEFAULT_BLACKLIST)


def test_reflection_no_change_on_clean_success():
    text = evolution.scripted_reflection(
        {"summary": summary_dict(success=True, reason="terminate",
                                 max_attempted_translation=1.5), "history": []}
    )
    assert parse_mutation(text).action == ACTION_NO_CHANGE


def test_reflection_overlays_after_two_low_inspection_scores():
    summary = summary_dict(task_kind="inspection", reason="terminate",
                           success=None, score=20.0, max_attempted_translation=0.0)
    history = [summary_dict(task_kind="inspection", score=30.0)]
    text = evolution.scripted_reflection(
        {"summary": summary, "history": history, "learned_names": ["older-skill"]}
    )
    decision = parse_mutation(text)
    assert decision.action == ACTION_OVERLAY
    assert decision.target == "older-skill"


def test_reflection_disables_marked_harmful_skill():
    summary = summary_dict(notes=["harmful-skill:bad-habit"])
    text = evolution.scripted_reflection({"summary": summary, "history": []})
    decision = parse_mutation(text)
    assert decision.action == ACTION_DISABLE
    assert decision.target == "bad-habit"


# -- fuzzed gate soundness ---------------------------------------------

_words = st.lists(
    st.sampled_from(
        ["keep", "steps", "small", "ignore", "safety", "exposure", "range",
         "exceed", "max", "step", "sweep", "yaw", "brightness", "limit"]
    ),
    min_size=1, max_size=8,
).map(" ".join)

_mutations = st.builds(
    MutationDecision,
    action=st.sampled_from([ACTION_CREATE, ACTION_OVERLAY, ACTION_REWRITE, ACTION_DISABLE]),
    scope=st.sampled_from(["rendezvous", "search", "inspection"]),
    target=st.one_of(st.none(), st.sampled_from(["ghost", "pace-forward-steps"])),
    content=st.one_of(
        st.none(),
        st.builds(
            lambda i, t, r: content(intent=i, trigger=t, rule=r),
            _words, _words, _words,
        ),
    ),
)


@given(mutation=_mutations)
@settings(max_examples=200, deadline=None)
def test_gate_never_accepts_constraint_violations(tmp_path_factory, mutation):
    store = SkillStore(tmp_path_factory.mktemp("gate") / "learned")
    verdict = quality_gate(mutation, store, "rendezvous")
    if verdict.accepted:
        text = " ".join((mutation.content or {}).values()).lower()
        assert not any(p in text for p in evolution.DEFAULT_BLACKLIST)
        assert mutation.scope == "rendezvous"
        if mutation.action != ACTION_CREATE:
            assert mutation.target in store.load_all()
    assert len(store.audit_records()) == 1


# -- one store, one read -------------------------------------------------


def test_reading_a_store_creates_nothing(tmp_path):
    store = SkillStore(tmp_path / "ws")
    assert store.load_all() == {} and store.view == {} and store.fingerprints() == set()
    assert store.history() == [] and store.audit_records() == []
    assert select_learned("rendezvous", "approach the target", store) == []
    assert not (tmp_path / "ws").exists()


def test_first_writes_make_the_directories_they_need(tmp_path):
    store = SkillStore(tmp_path / "ws" / "nested")
    store.record_episode(EpisodeSummary(**summary_dict()))
    assert store.history_path.is_file() and not store.learned_dir.exists()
    assert [s.episode_id for s in SkillStore(store.workspace).history()] == ["ep-000001"]
    store.audit({"episode_id": "ep-000001", "accepted": True})
    assert store.audit_records() == [{"accepted": True, "episode_id": "ep-000001"}]


def test_store_view_follows_every_mutation_and_gates_a_resubmission(store):
    name = seeded(store)
    assert store.view == SkillStore(store.workspace).load_all()
    for episode, mutation in [
        ("ep-000002", MutationDecision(action=ACTION_OVERLAY, scope="rendezvous", target=name,
                                       content=content(rule="also decay steps inside 5 m"))),
        ("ep-000003", MutationDecision(action=ACTION_REWRITE, scope="rendezvous", target=name,
                                       content=content(rule="a fully new rule"))),
        ("ep-000004", MutationDecision(action=ACTION_DISABLE, scope="rendezvous",
                                       target=name)),
    ]:
        assert quality_gate(mutation, store, "rendezvous", episode).accepted
        materialize(mutation, store, episode_id=episode)
        assert store.view == SkillStore(store.workspace).load_all()
    assert store.view[name][0].version == 3
    assert store.view[name][0].enabled is False

    resubmitted = MutationDecision(action=ACTION_OVERLAY, scope="rendezvous", target=name,
                                   content=content(rule="a fully new rule"))
    verdict = quality_gate(resubmitted, store, "rendezvous", "ep-000005")
    assert verdict.rejected_by == evolution.REJECT_DUPLICATE


def test_mutations_into_an_existing_learned_dir_make_no_directory(store, monkeypatch):
    name = seeded(store)
    made = []
    monkeypatch.setattr(type(store.learned_dir), "mkdir",
                        lambda path, *args, **kwargs: made.append(path))
    for episode, mutation in [
        ("ep-000002", create(content=content(intent="hold pose when the target is lost",
                                              rule="hold pose until the target is seen"))),
        ("ep-000003", MutationDecision(action=ACTION_OVERLAY, scope="rendezvous", target=name,
                                       content=content(rule="also decay steps inside 5 m"))),
        ("ep-000004", MutationDecision(action=ACTION_REWRITE, scope="rendezvous", target=name,
                                       content=content(rule="a fully new rule"))),
        ("ep-000005", MutationDecision(action=ACTION_DISABLE, scope="rendezvous",
                                       target=name)),
    ]:
        assert quality_gate(mutation, store, "rendezvous", episode).accepted
        materialize(mutation, store, episode_id=episode)
    assert made == []
    assert store.view == SkillStore(store.workspace).load_all()


def test_failed_rewrite_keeps_the_active_version(store, monkeypatch):
    name = seeded(store)

    def disk_full(path, mode="w"):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(evolution, "open_for_write", disk_full)
    rewrite = MutationDecision(action=ACTION_REWRITE, scope="rendezvous", target=name,
                               content=content(rule="a fully new rule"))
    with pytest.raises(evolution.StoreWriteFailure):
        materialize(rewrite, store, episode_id="ep-000002")
    monkeypatch.undo()
    assert store.view == SkillStore(store.workspace).load_all()
    assert store.view[name][0].version == 1


def test_failed_history_append_leaves_the_tail_unchanged(tmp_path, monkeypatch):
    store = SkillStore(tmp_path)
    store.record_episode(EpisodeSummary(**summary_dict(episode_id="ep-000001")))
    before = store.history()

    def disk_full(path, record):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(SkillStore, "_append_jsonl", staticmethod(disk_full))
    with pytest.raises(OSError):
        store.record_episode(EpisodeSummary(**summary_dict(episode_id="ep-000002")))
    monkeypatch.undo()
    assert store.history() == before == SkillStore(tmp_path).history()


def test_history_parses_only_the_reflection_tail(tmp_path):
    lines = ["not json"] * 5 + [
        json.dumps(summary_dict(episode_id=f"ep-{i:06d}")) for i in range(1, 5)
    ]
    (tmp_path / "episodes.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    history = SkillStore(tmp_path).history()
    assert [s.episode_id for s in history] == ["ep-000002", "ep-000003", "ep-000004"]
    assert len(history) == evolution.REFLECTION_HISTORY


@pytest.mark.parametrize("line, problem", [
    ("not json", "not JSON"),
    ("[1, 2]", "not a JSON object"),
    ('{"episode_id": "ep-000001"}', "not an episode summary"),
])
def test_malformed_history_line_is_named_by_file_and_line(tmp_path, line, problem):
    good = json.dumps(summary_dict())
    (tmp_path / "episodes.jsonl").write_text(f"{good}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(evolution.EvolutionError) as info:
        SkillStore(tmp_path).history()
    assert str(info.value).startswith(f"{tmp_path / 'episodes.jsonl'} line 3: {problem}")
