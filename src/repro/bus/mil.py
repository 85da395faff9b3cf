"""The configuration language (MIL) of Figure 2.

A lexer + recursive-descent parser for specifications like::

    module compute {
      source = "./compute.py" ::
      server interface display pattern = {integer} returns = {float} ::
      use interface sensor pattern = {-integer} ::
      reconfiguration point = {R} ::
    }
    module monitor {
      instance display
      instance compute machine = "remote"
      instance sensor
      bind "display temper" "compute display"
      bind "sensor out" "compute sensor"
    }

Deliberate fidelity notes: the paper's Figure 2 writes ``accepts{-float}``
(no ``=``) and calls the application block a ``module`` — both are
accepted; ``::`` separators and ``#`` comments are skipped; a leading
``-`` or ``'`` on a pattern name (both appear in the figure) is
tolerated.  A block containing ``instance``/``bind`` statements is an
application specification; anything else is a module specification.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bus.interfaces import InterfaceDecl, Role
from repro.bus.spec import (
    ApplicationSpec,
    BindingSpec,
    Configuration,
    InstanceSpec,
    ModuleSpec,
)
from repro.errors import MILSyntaxError
from repro.state.format import pattern_to_format

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<sep>::|,)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[{}=:])
  | (?P<word>[A-Za-z0-9_.'\-/]+)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'string' | 'punct' | 'word' | 'eof'
    value: str
    lineno: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    lineno, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            col = pos - line_start + 1
            raise MILSyntaxError(
                f"unexpected character {text[pos]!r}", lineno=lineno, col=col
            )
        kind = match.lastgroup
        value = match.group()
        if kind not in ("ws", "comment", "sep"):
            tokens.append(
                Token(kind=kind, value=value, lineno=lineno, col=pos - line_start + 1)
            )
        newlines = value.count("\n")
        if newlines:
            lineno += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", lineno, 1))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> MILSyntaxError:
        token = token or self.peek()
        return MILSyntaxError(message, lineno=token.lineno, col=token.col)

    def expect_word(self, *values: str) -> Token:
        token = self.take()
        if token.kind != "word" or (values and token.value not in values):
            expected = " or ".join(values) if values else "identifier"
            raise self.error(f"expected {expected}, found {token.value!r}", token)
        return token

    def expect_punct(self, value: str) -> Token:
        token = self.take()
        if token.kind != "punct" or token.value != value:
            raise self.error(f"expected {value!r}, found {token.value!r}", token)
        return token

    def expect_string(self) -> str:
        token = self.take()
        if token.kind != "string":
            raise self.error(f"expected string literal, found {token.value!r}", token)
        return token.value[1:-1].replace('\\"', '"').replace("\\\\", "\\")

    def accept_punct(self, value: str) -> bool:
        token = self.peek()
        if token.kind == "punct" and token.value == value:
            self.take()
            return True
        return False

    # -- grammar -----------------------------------------------------------------

    def parse_configuration(self) -> Configuration:
        config = Configuration()
        while self.peek().kind != "eof":
            keyword = self.expect_word("module", "application", "orchestrate")
            name = self.expect_word().value
            block_tokens_start = self.pos
            kind = self._classify_block(keyword.value)
            self.pos = block_tokens_start
            if kind == "application":
                app = self._parse_application(name)
                if config.application is not None:
                    raise self.error(
                        f"second application block {name!r}; only one allowed"
                    )
                config.application = app
            else:
                spec = self._parse_module(name)
                if spec.name in config.modules:
                    raise self.error(f"module {spec.name!r} specified twice")
                config.modules[spec.name] = spec
        config.validate()
        return config

    def _classify_block(self, keyword: str) -> str:
        """The paper writes the application block as ``module monitor``;
        classify by content."""
        if keyword in ("application", "orchestrate"):
            return "application"
        depth = 0
        pos = self.pos
        kind = "module"
        while pos < len(self.tokens):
            token = self.tokens[pos]
            if token.kind == "punct" and token.value == "{":
                depth += 1
            elif token.kind == "punct" and token.value == "}":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1 and token.kind == "word" and token.value in (
                "instance",
                "bind",
            ):
                kind = "application"
            pos += 1
        return kind

    # -- module specification ------------------------------------------------------

    def _parse_module(self, name: str) -> ModuleSpec:
        spec = ModuleSpec(name=name)
        self.expect_punct("{")
        while not self.accept_punct("}"):
            token = self.peek()
            if token.kind == "eof":
                raise self.error(f"unterminated module block {name!r}")
            word = self.expect_word().value
            if word == "source":
                self.expect_punct("=")
                spec.source = self.expect_string()
            elif word in ("client", "server", "use", "define"):
                spec.interfaces.append(self._parse_interface(Role(word)))
            elif word == "interface":
                # Bare 'interface' defaults to bidirectional client role.
                self.pos -= 1
                self.take()
                raise self.error(
                    "interface declarations need a role: client, server, "
                    "use, or define"
                )
            elif word == "reconfiguration":
                self.expect_word("point")
                self.expect_punct("=")
                spec.reconfig_points.extend(self._parse_name_list())
            else:
                # Free-form attribute: NAME = "value"
                self.expect_punct("=")
                spec.attributes[word] = self.expect_string()
        return spec

    def _parse_interface(self, role: Role) -> InterfaceDecl:
        self.expect_word("interface")
        name = self.expect_word().value
        pattern = ""
        returns = ""
        while True:
            token = self.peek()
            if token.kind == "word" and token.value == "pattern":
                self.take()
                self.accept_punct("=")
                pattern = pattern_to_format(self._parse_name_list())
            elif token.kind == "word" and token.value in ("returns", "accepts"):
                self.take()
                self.accept_punct("=")
                returns = pattern_to_format(self._parse_name_list())
            else:
                break
        return InterfaceDecl(name=name, role=role, pattern=pattern, returns=returns)

    def _parse_name_list(self) -> List[str]:
        """Parse ``{name name ...}`` tolerating the figure's stray quotes."""
        self.expect_punct("{")
        names: List[str] = []
        while not self.accept_punct("}"):
            token = self.take()
            if token.kind == "eof":
                raise self.error("unterminated { } list")
            if token.kind != "word":
                raise self.error(f"unexpected {token.value!r} in {{ }} list", token)
            names.append(token.value.lstrip("'"))
        return names

    # -- application specification ----------------------------------------------------

    def _parse_application(self, name: str) -> ApplicationSpec:
        app = ApplicationSpec(name=name)
        self.expect_punct("{")
        while not self.accept_punct("}"):
            token = self.peek()
            if token.kind == "eof":
                raise self.error(f"unterminated application block {name!r}")
            word = self.expect_word("instance", "bind").value
            if word == "instance":
                app.instances.append(self._parse_instance())
            else:
                app.bindings.append(self._parse_binding())
        return app

    def _parse_instance(self) -> InstanceSpec:
        instance = self.expect_word().value
        module = instance
        if self.accept_punct(":"):
            module = self.expect_word().value
        inst = InstanceSpec(instance=instance, module=module)
        # Optional attribute assignments: machine = "host" ...
        while (
            self.peek().kind == "word"
            and self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1].kind == "punct"
            and self.tokens[self.pos + 1].value == "="
        ):
            key = self.expect_word().value
            self.expect_punct("=")
            value = self.expect_string()
            if key == "machine":
                inst.machine = value
            else:
                inst.attributes[key] = value
        return inst

    def _parse_binding(self) -> BindingSpec:
        left = self._parse_endpoint(self.expect_string())
        right = self._parse_endpoint(self.expect_string())
        return BindingSpec(
            from_instance=left[0],
            from_interface=left[1],
            to_instance=right[0],
            to_interface=right[1],
        )

    def _parse_endpoint(self, text: str) -> Tuple[str, str]:
        parts = text.split()
        if len(parts) != 2:
            raise self.error(
                f'binding endpoint {text!r} must be "instance interface"'
            )
        return parts[0], parts[1]


def parse_mil(text: str) -> Configuration:
    """Parse a complete MIL configuration (module specs + application)."""
    return _Parser(tokenize(text)).parse_configuration()


def parse_module_spec(text: str) -> ModuleSpec:
    """Parse a single module specification block."""
    config = parse_mil(text)
    if config.application is not None or len(config.modules) != 1:
        raise MILSyntaxError("expected exactly one module specification")
    return next(iter(config.modules.values()))
