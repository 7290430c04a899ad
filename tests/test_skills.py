import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import reasoning, runner, skills
from proxagent.evolution import SkillStore
from proxagent.runner import default_skills_root


@pytest.fixture(scope="module")
def catalog():
    return skills.SkillCatalog.load(default_skills_root())


# -- file format --------------------------------------------------------


def test_parse_render_round_trip():
    skill = skills.Skill(
        name="step-pacing", category="learned", routing_summary="pace steps",
        keywords=["pace", "step"], body="Rule: slow down near the target.",
        scope=["rendezvous"], version=3, provenance="evolved:ep-000004",
        enabled=False,
    )
    again = skills.parse_skill_text(skills.render_skill(skill))
    assert again == skill


# header text rich in what could end a header early: a ``---``, a colon, a
# comment sign, blanks and commas
_header_text = st.lists(
    st.one_of(st.sampled_from(["---", "-", ":", "#", " ", ","]), st.characters()), max_size=8,
).map("".join)
_header_value = _header_text.filter(lambda v: v == v.strip() and len(v.splitlines()) <= 1)
_header_item = _header_value.filter(lambda v: v != "" and "," not in v)


@given(name=_header_value.filter(bool), routing_summary=_header_value,
       provenance=_header_value, keywords=st.lists(_header_item, max_size=3),
       scope=st.lists(_header_item, max_size=3), version=st.integers(1, 10**6),
       enabled=st.booleans())
@settings(max_examples=300, deadline=None)
def test_any_single_line_header_values_round_trip(**fields):
    skill = skills.Skill(category="learned", body="Rule: hold.\n---\nmore", **fields)
    assert skills.parse_skill_text(skills.render_skill(skill)) == skill


def test_parse_rejects_bad_files():
    with pytest.raises(skills.SkillError):
        skills.parse_skill_text("no delimiter at all")
    with pytest.raises(skills.SkillError):
        skills.parse_skill_text("name: x\ncategory: wrong\n---\nbody")
    with pytest.raises(skills.SkillError):
        skills.parse_skill_text("category: core\n---\nbody")  # missing name


@pytest.mark.parametrize("header, problem", [
    # a misspelt value or key must not leave a disabled skill enabled
    ("name: x\nenabled: flase", "header key 'enabled' must be true or false, "
                                "in any letter case, got 'flase'"),
    ("name: x\nenabeld: false", "unknown header key 'enabeld'"),
    ("name: x\nversion: 1_0",
     "header key 'version' must be a whole number of at least 1, got '1_0'"),
    ("name: x\nversion: -4",
     "header key 'version' must be a whole number of at least 1, got '-4'"),
    ("name: x\nversion: 0",
     "header key 'version' must be a whole number of at least 1, got '0'"),
    ("name:", "header key 'name' must be a non-empty string, got ''"),
])
def test_parse_checks_each_header_key(header, problem):
    with pytest.raises(skills.SkillError) as info:
        skills.parse_skill_text(f"category: learned\n{header}\n---\nbody")
    assert str(info.value) == problem


@pytest.mark.parametrize("value, enabled", [("true", True), ("FALSE", False), ("True", True)])
def test_enabled_is_read_in_any_letter_case(value, enabled):
    text = f"name: x\ncategory: learned\nenabled: {value}\n---\nbody"
    assert skills.parse_skill_text(text).enabled is enabled


def test_parse_rejects_a_repeated_header_key():
    # the second enabled: line must not silently win over the first
    with pytest.raises(skills.SkillError, match="repeated header key 'enabled'"):
        skills.parse_skill_text("name: x\ncategory: core\nenabled: true\nenabled: false\n"
                                "---\nbody")


def test_shipped_catalog_layout(catalog):
    by_cat = {c: [s.name for s in catalog.of_category(c)] for c in skills.CATEGORIES}
    assert len(by_cat["core"]) == 3
    assert sorted(by_cat["task"]) == ["approach", "inspection", "search"]
    assert sorted(by_cat["helper"]) == ["distance", "perception", "target-recovery"]
    assert sorted(by_cat["mode"]) == [
        "prospective-plan", "prospective-select", "react-loop",
    ]


def test_learned_loader_keeps_highest_version(tmp_path):
    learned = tmp_path / "learned"
    learned.mkdir()
    for version in (1, 2):
        skill = skills.Skill(
            name="pace", category="learned", version=version,
            body=f"v{version}", provenance="evolved:ep-000001",
        )
        (learned / f"pace.v{version}.skill").write_text(skills.render_skill(skill))
    assert SkillStore(tmp_path).load_all()["pace"][0].version == 2


def test_store_skips_archived_learned_skills(tmp_path):
    learned = tmp_path / "learned"
    learned.mkdir()
    for filename, name, version in [
        ("a.v1.skill", "a", 1), ("a.v2.skill", "a", 2),
        ("a.v3.skill.archived", "a", 3), ("b.v1.skill", "b", 1),
    ]:
        skill = skills.Skill(name=name, category="learned", version=version,
                             body=f"{name} v{version}")
        (learned / filename).write_text(skills.render_skill(skill), encoding="utf-8")

    stored = SkillStore(tmp_path).load_all()
    from_store = {name: (s.version, s.body) for name, (s, _path) in stored.items()}
    assert from_store == {"a": (2, "a v2"), "b": (1, "b v1")}
    assert stored["a"][1].name == "a.v2.skill"


def test_catalog_holds_only_hand_authored_categories(tmp_path):
    shutil.copytree(default_skills_root(), tmp_path, dirs_exist_ok=True)
    learned = tmp_path / "learned"
    learned.mkdir()
    skill = skills.Skill(name="pace", category="learned", body="Rule: slow down.")
    (learned / "pace.v1.skill").write_text(skills.render_skill(skill), encoding="utf-8")
    catalog = skills.SkillCatalog.load(tmp_path)
    assert "pace" not in catalog.by_name
    assert {s.category for s in catalog.skills} == {"core", "task", "helper", "mode"}


def test_each_load_sees_skill_files_added_edited_and_removed(tmp_path):
    helper = tmp_path / "helper"
    helper.mkdir()

    def write(name, body):
        skill = skills.Skill(name=name, category="helper", body=body)
        (helper / f"{name}.skill").write_text(skills.render_skill(skill), encoding="utf-8")

    def bodies():
        catalog = skills.SkillCatalog.load(tmp_path)
        return {s.name: s.body for s in catalog.of_category("helper")}

    write("range", "keep 2 m")
    assert bodies() == {"range": "keep 2 m"}
    write("glare", "lower the gain")                      # added
    assert bodies() == {"range": "keep 2 m", "glare": "lower the gain"}
    write("range", "keep 2 m, then hold position")        # edited
    assert bodies() == {"range": "keep 2 m, then hold position", "glare": "lower the gain"}
    (helper / "glare.skill").unlink()                     # removed
    assert bodies() == {"range": "keep 2 m, then hold position"}
    (helper / "range.skill").rename(helper / "range.skill.archived")
    assert bodies() == {}


def test_the_catalog_hands_out_only_enabled_skills():
    on = skills.Skill(name="range", category="helper", keywords=["range"])
    off = skills.Skill(name="glare", category="helper", keywords=["range"], enabled=False)
    catalog = skills.SkillCatalog([on, off])
    assert catalog.of_category("helper") == [on]
    assert catalog.skills == [on, off]  # what `skills list` shows
    assert catalog.enabled("glare") is None


def test_loaded_skills_are_immutable():
    # loads share the parsed skills, so none of them may change
    catalog = skills.SkillCatalog.load(default_skills_root())
    with pytest.raises(AttributeError):
        catalog.by_name["approach"].enabled = False


# -- routing ------------------------------------------------------------

INTENDED = [
    ("rendezvous with CAPSTONE and approach to about 2 m", "rendezvous", "approach"),
    ("search to find IBEX then approach to about 2 m", "search", "search"),
    ("inspect Huygens up close and report its characteristics", "inspection", "inspection"),
    ("close the distance and dock near the satellite", "rendezvous", "approach"),
    ("scan the area to locate the lost satellite", "search", "search"),
    ("photograph and report on the spacecraft surface", "inspection", "inspection"),
]


@pytest.mark.parametrize("description,kind,expected", INTENDED)
def test_keyword_router_picks_intended_task_skill(catalog, description, kind, expected):
    result = skills.keyword_fallback_router(description, kind, catalog)
    assert result.task_skill == expected


def test_router_zero_overlap_falls_back_to_defaults(catalog):
    result = skills.keyword_fallback_router("zzz qqq", "search", catalog)
    assert result.used_fallback
    assert result.task_skill == "search"
    assert result.helper_skills == ["target-recovery", "distance"]


def test_router_caps_helpers_at_two(catalog):
    result = skills.keyword_fallback_router(
        "search and find the satellite, recover it, watch the distance and range, "
        "inspect brightness and report", "search", catalog,
    )
    assert len(result.helper_skills) <= 2


def test_parse_router_output_grammar():
    parsed = skills.parse_router_output(
        "task=approach; helpers=distance,perception; because=nav task"
    )
    assert parsed == ("approach", ["distance", "perception"], "nav task")
    assert skills.parse_router_output("task=approach helpers=") is None
    assert skills.parse_router_output("") is None


class _StubRouter:
    def __init__(self, output):
        self.output = output

    def complete(self, request):
        if isinstance(self.output, Exception):
            raise self.output
        return self.output


@pytest.mark.parametrize(
    "output",
    [
        "garbage",
        "task=unknown-skill; helpers=; because=x",
        "task=approach; helpers=distance,perception,target-recovery; because=too many",
        "task=distance; helpers=; because=helper as task",
        RuntimeError("router down"),
    ],
)
def test_provider_router_misbehavior_falls_back(catalog, output):
    result = skills.route(
        "approach the satellite", "rendezvous", "standard", catalog,
        router=_StubRouter(output),
    )
    assert result.used_fallback
    assert result.task_skill == "approach"


def test_provider_router_valid_output_is_used(catalog):
    result = skills.route(
        "approach", "rendezvous", "standard", catalog,
        router=_StubRouter("task=search; helpers=distance; because=operator override"),
    )
    assert not result.used_fallback
    assert result.task_skill == "search"
    assert result.helper_skills == ["distance"]


@given(st.text(max_size=80))
@settings(max_examples=80, deadline=None)
def test_routing_never_invalid_under_fuzz(text):
    catalog = skills.SkillCatalog.load(default_skills_root())
    result = skills.route(
        text, "rendezvous", "standard", catalog, router=_StubRouter(text)
    )
    task_skill = catalog.by_name[result.task_skill]
    assert task_skill.category == "task" and task_skill.enabled
    assert len(result.helper_skills) <= 2
    for name in result.helper_skills:
        assert catalog.by_name[name].category == "helper"


# -- prompt assembly ----------------------------------------------------


def _section_names(text):
    return re.findall(r"^======== SKILL (\S+) ", text, re.MULTILINE)


def test_assemble_prompt_order_and_delimiters(catalog):
    routed = skills.RoutingResult("approach", ["distance"], "test", False)
    learned = skills.Skill(name="cap", category="learned", body="cap_forward_step: 1.0")
    prompt = skills.assemble_prompt(
        catalog.of_category("core"), routed,
        catalog.mode_skills(reasoning.MODES["prospective"].skills), [learned], catalog,
    )
    names = prompt.skill_names
    head = [s.name for s in catalog.of_category("core")] + ["approach", "distance"]
    assert names == head + ["prospective-plan", "prospective-select", "cap"]
    assert prompt.text.count("======== SKILL ") == len(names)
    # section order in the text matches the declared order
    assert _section_names(prompt.text) == names
    # each call kind is sent the same sections, with only its own mode skill
    assert _section_names(prompt.for_call("plan")) == head + ["prospective-plan", "cap"]
    assert _section_names(prompt.for_call("select")) == head + ["prospective-select", "cap"]
    assert _section_names(prompt.for_call("decide_action")) == head + ["cap"]
    assert prompt.for_call("decide_action") == prompt.base
    # a call kind's text is the full text without the other phase's section
    select = ("\n\n======== SKILL prospective-select (mode) ========\n"
              + catalog.by_name["prospective-select"].body)
    assert select in prompt.text
    assert prompt.for_call("plan") == prompt.text.replace(select, "")


def test_mode_skill_table():
    modes = reasoning.MODES
    assert list(modes) == ["standard", "react", "prospective"]
    assert modes["standard"].skills == {}
    assert modes["react"].skills == {reasoning.CALL_DECIDE: ("react-loop",)}
    assert modes["prospective"].skills == {
        reasoning.CALL_PLAN: ("prospective-plan",), reasoning.CALL_SELECT: ("prospective-select",),
    }
    catalog = skills.SkillCatalog.load(default_skills_root())
    for name, mode in modes.items():
        assert runner._MODE_STEP[name] is mode.step
        # every named mode skill is a shipped, enabled skill of category mode
        for kind, skills_of_kind in catalog.mode_skills(mode.skills).items():
            assert [s.name for s in skills_of_kind] == list(mode.skills[kind])
            assert all(s.category == skills.MODE and s.enabled for s in skills_of_kind)


# The counts the mode records hold, as the mode skills' prose states them
_COUNT_WORDS = {2: ("two", "second"), 3: ("three", "third"), 4: ("four", "fourth")}


def test_the_mode_prose_states_the_mode_records_counts():
    catalog = skills.SkillCatalog.load(default_skills_root())
    modes = reasoning.MODES

    def prose(mode, kind):
        (name,) = modes[mode].skills[kind]
        return " ".join(catalog.by_name[name].body.split())

    rounds, last = _COUNT_WORDS[modes["react"].rounds]
    react = prose("react", reasoning.CALL_DECIDE)
    assert f"at most {rounds} rounds" in react and f"the {last} round" in react
    candidates, _ = _COUNT_WORDS[modes["prospective"].candidates]
    assert f"propose {candidates} candidate actions" in prose("prospective", reasoning.CALL_PLAN)
    hint = reasoning.RemoteProvider._GRAMMAR_HINTS[reasoning.CALL_PLAN]
    assert f"up to {candidates} lines" in hint


def test_keyword_routes_are_computed_once_and_handed_out_as_copies(monkeypatch):
    catalog = skills.SkillCatalog.load(default_skills_root())
    computed = []
    keyword_router = skills.keyword_fallback_router

    def counting_router(*args):
        computed.append(args)
        return keyword_router(*args)

    monkeypatch.setattr(skills, "keyword_fallback_router", counting_router)
    description = "Search for the lost target and approach to within 5 m"
    first = skills.route(description, "search", "standard", catalog)
    helpers = list(first.helper_skills)
    first.helper_skills.append("tampered")
    second = skills.route(description, "search", "react", catalog)
    assert second is not first
    assert second.helper_skills is not first.helper_skills
    assert second.helper_skills == helpers
    assert len(computed) == 1
    skills.route(description, "rendezvous", "standard", catalog)
    assert len(computed) == 2
    # another catalog keeps its own routes
    other = skills.SkillCatalog.load(default_skills_root())
    skills.route(description, "search", "standard", other)
    assert len(computed) == 3


def test_skill_parse_errors_name_the_file(tmp_path):
    helper = tmp_path / "helper"
    helper.mkdir()
    bad = helper / "broken.skill"
    bad.write_text("name: broken\ncategory: helper\nno delimiter\n", encoding="utf-8")
    with pytest.raises(skills.SkillError, match="broken.skill: skill file missing '---'"):
        skills.SkillCatalog.load(tmp_path)
    bad.write_text("name: broken\ncategory: helper\nversion: two\n---\nbody\n",
                   encoding="utf-8")
    with pytest.raises(skills.SkillError, match="broken.skill: header key 'version' must be "
                                                 "a whole number of at least 1, got 'two'"):
        skills.SkillCatalog.load(tmp_path)


def test_catalog_root_must_be_a_directory(tmp_path):
    a_file = tmp_path / "skills.txt"
    a_file.write_text("", encoding="utf-8")
    for root in (tmp_path / "missing", a_file):
        with pytest.raises(skills.SkillError, match="not a directory"):
            skills.SkillCatalog.load(root)
