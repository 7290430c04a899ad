import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import skills
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


def test_parse_rejects_bad_files():
    with pytest.raises(skills.SkillError):
        skills.parse_skill_text("no delimiter at all")
    with pytest.raises(skills.SkillError):
        skills.parse_skill_text("name: x\ncategory: wrong\n---\nbody")
    with pytest.raises(skills.SkillError):
        skills.parse_skill_text("category: core\n---\nbody")  # missing name


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


def test_assemble_prompt_order_and_delimiters(catalog):
    routed = skills.RoutingResult("approach", ["distance"], "test", False)
    mode_skills = [catalog.by_name[n] for n in skills.MODE_SKILLS["prospective"]]
    prompt = skills.assemble_prompt(
        catalog.of_category("core"), routed, mode_skills, [], catalog
    )
    names = prompt.skill_names
    assert names[:3] == [s.name for s in catalog.of_category("core")]
    assert names[3:5] == ["approach", "distance"]
    assert names[5:] == ["prospective-plan", "prospective-select"]
    assert prompt.text.count("======== SKILL ") == len(names)
    # section order in the text matches the declared order
    positions = [prompt.text.index(f"SKILL {name} ") for name in names]
    assert positions == sorted(positions)


def test_assemble_prompt_rejects_disabled(catalog):
    disabled = skills.Skill(name="bad", category="learned", enabled=False)
    routed = skills.RoutingResult("approach", [], "test", False)
    with pytest.raises(skills.DisabledSkillIncluded):
        skills.assemble_prompt(
            catalog.of_category("core"), routed, [], [disabled], catalog
        )


def test_mode_skill_table():
    assert skills.MODE_SKILLS["standard"] == []
    assert skills.MODE_SKILLS["react"] == ["react-loop"]
    assert skills.MODE_SKILLS["prospective"] == [
        "prospective-plan", "prospective-select",
    ]


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
    with pytest.raises(skills.SkillError, match="broken.skill: bad version 'two'"):
        skills.SkillCatalog.load(tmp_path)


def test_catalog_root_must_be_a_directory(tmp_path):
    a_file = tmp_path / "skills.txt"
    a_file.write_text("", encoding="utf-8")
    for root in (tmp_path / "missing", a_file):
        with pytest.raises(skills.SkillError, match="not a directory"):
            skills.SkillCatalog.load(root)
