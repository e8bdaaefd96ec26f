"""Program model: module naming and call resolution."""

from __future__ import annotations

import textwrap

from repro.lint.deep.graph import build_program, module_name_for


def _write_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""pkg."""\n')
    for name, source in files.items():
        (pkg / name).write_text(textwrap.dedent(source))
    return pkg


def test_module_name_climbs_the_package_chain(tmp_path):
    pkg = _write_pkg(tmp_path, {"mod.py": "X = 1\n"})
    assert module_name_for(str(pkg / "mod.py")) == "pkg.mod"
    assert module_name_for(str(pkg / "__init__.py")) == "pkg"
    loose = tmp_path / "loose.py"
    loose.write_text("Y = 2\n")
    assert module_name_for(str(loose)) == "loose"


def test_call_graph_resolves_functions_methods_and_constructors(tmp_path):
    _write_pkg(
        tmp_path,
        {
            "lib.py": """
                def helper():
                    return 1


                class Engine:
                    def __init__(self):
                        self.state = 0

                    def advance(self):
                        return helper()
            """,
            "app.py": """
                from pkg.lib import Engine, helper


                def run():
                    engine = Engine()
                    engine.advance()
                    return helper()
            """,
        },
    )
    program = build_program([str(tmp_path)])
    run = program.modules["pkg.app"].functions["run"]
    callees = {target.id for target, _ in program.callees(run)}
    assert callees == {
        "pkg.lib:Engine.__init__",
        "pkg.lib:Engine.advance",
        "pkg.lib:helper",
    }


def test_self_method_resolution_follows_the_mro(tmp_path):
    _write_pkg(
        tmp_path,
        {
            "base.py": """
                class Base:
                    def hook(self):
                        return 0
            """,
            "sub.py": """
                from pkg.base import Base


                class Sub(Base):
                    def run(self):
                        return self.hook()
            """,
        },
    )
    program = build_program([str(tmp_path)])
    run = program.modules["pkg.sub"].functions["Sub.run"]
    callees = {target.id for target, _ in program.callees(run)}
    assert callees == {"pkg.base:Base.hook"}


def test_attr_type_inference_resolves_self_attribute_calls(tmp_path):
    _write_pkg(
        tmp_path,
        {
            "m.py": """
                class Channel:
                    def send(self, item):
                        return item


                class Session:
                    def __init__(self):
                        self.chan = Channel()

                    def pump(self):
                        while True:
                            yield self.chan.send(1)
            """,
        },
    )
    program = build_program([str(tmp_path)])
    module = program.modules["pkg.m"]
    session = module.classes["Session"]
    assert session.attr_types["chan"].qualname == "Channel"
    pump = module.functions["Session.pump"]
    callees = {target.id for target, _ in program.callees(pump)}
    assert callees == {"pkg.m:Channel.send"}
