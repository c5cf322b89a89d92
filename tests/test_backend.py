"""Tests for the C backends (unparser + compile-and-run)."""

import subprocess

import numpy as np
import pytest

from repro.applications import make_case
from repro.backend import (compile_kernel, compiler_available,
                           unparse_function)
from repro.cir import (Affine, Assign, Buffer, FloatConst, For, Function,
                       ScalarVar, Store, Load, BinOp, VBlend, VecVar, VLoad,
                       VStore)
from repro.slingen import Options, SLinGen


def _simple_scalar_function():
    a = Buffer("a", 1, 4, "in")
    out = Buffer("out", 1, 4, "out")
    acc = ScalarVar("acc")
    body = [For("i", 0, 4, 1,
                [Assign(acc, BinOp("mul", Load(a, Affine.var("i")),
                                   FloatConst(2.0))),
                 Store(out, Affine.var("i"), acc)])]
    return Function("scale2", [a, out], [], body, vector_width=1)


class TestUnparser:
    def test_scalar_function_text(self):
        code = unparse_function(_simple_scalar_function())
        assert "void scale2(const double* restrict a, double* restrict out)" \
            in code
        assert "for (int i = 0; i < 4; i += 1)" in code
        assert "#include <math.h>" in code
        assert "immintrin" not in code

    def test_vector_function_uses_intrinsics_and_masks(self):
        a = Buffer("a", 1, 6, "in")
        out = Buffer("out", 1, 6, "out")
        v = VecVar("v")
        mask = (True, True, False, False)
        body = [Assign(v, VLoad(a, Affine.constant(4), 4, mask)),
                VStore(out, Affine.constant(4), v, 4, mask),
                VStore(out, Affine.constant(0),
                       VBlend(VLoad(a, Affine.constant(0)),
                              VLoad(a, Affine.constant(0)), 0x3))]
        func = Function("vk", [a, out], [], body, vector_width=4)
        code = unparse_function(func)
        assert "_mm256_maskload_pd" in code
        assert "_mm256_maskstore_pd" in code
        assert "_mm256_blend_pd" in code
        assert "_mm256_set_epi64x" in code

    def test_generated_kernel_declares_temporaries(self):
        case = make_case("kf", 6)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        assert "double lg_tmp" in generated.c_code or \
            "double c1_t" in generated.c_code

    def test_storage_groups_share_one_pointer(self):
        case = make_case("kf", 6)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        signature = next(line for line in generated.c_code.splitlines()
                         if line.startswith("void "))
        # U overwrites M3: only the M3 pointer appears in the signature.
        assert "double* restrict M3" in signature
        assert "restrict U" not in signature


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestCompileAndRun:
    def test_compile_simple_kernel(self):
        func = _simple_scalar_function()
        code = unparse_function(func)
        kernel = compile_kernel(code, func)
        result = kernel.run({"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
        np.testing.assert_allclose(result["out"], [[2.0, 4.0, 6.0, 8.0]])

    def test_compile_vectorized_generated_code(self):
        case = make_case("trsyl", 6)
        generated = SLinGen(Options(autotune=False)).generate(case.program)
        inputs = case.make_inputs(2)
        outputs = generated.compile_and_run(inputs)
        expected = case.reference_outputs(inputs)
        np.testing.assert_allclose(outputs["X"], expected["X"], atol=1e-7)


class TestFindCompiler:
    def test_cc_environment_variable_wins(self, tmp_path, monkeypatch):
        fake = tmp_path / "my-super-cc"
        fake.write_text("#!/bin/sh\nexit 0\n")
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        from repro.backend.compile import find_c_compiler
        assert find_c_compiler() == str(fake)

    def test_unusable_cc_falls_back_to_probing(self, monkeypatch):
        monkeypatch.setenv("CC", "/definitely/not/a/compiler")
        from repro.backend.compile import find_c_compiler
        found = find_c_compiler()
        # Falls back to cc/gcc/clang probing; never returns the bogus CC.
        assert found != "/definitely/not/a/compiler"

    def test_empty_cc_ignored(self, monkeypatch):
        monkeypatch.setenv("CC", "   ")
        from repro.backend.compile import find_c_compiler
        assert find_c_compiler() != "   "


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
class TestObjectCache:
    def test_compile_kernel_reuses_cached_object(self, tmp_path):
        func = _simple_scalar_function()
        code = unparse_function(func)
        first = compile_kernel(code, func, cache_key="k" * 64,
                               cache_dir=str(tmp_path))
        assert first.library_path.startswith(str(tmp_path))
        # Second compile with the same key must reuse the same .so path.
        second = compile_kernel(code, func, cache_key="k" * 64,
                                cache_dir=str(tmp_path))
        assert second.library_path == first.library_path
        result = second.run({"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
        np.testing.assert_allclose(result["out"], [[2.0, 4.0, 6.0, 8.0]])
        # Different key -> different cached object.
        third = compile_kernel(code, func, cache_key="x" * 64,
                               cache_dir=str(tmp_path))
        assert third.library_path != first.library_path

    def test_compiler_change_misses_the_object_cache(self, tmp_path,
                                                     monkeypatch):
        from repro.backend.compile import compiler_identity, find_c_compiler
        real = find_c_compiler()
        func = _simple_scalar_function()
        code = unparse_function(func)
        cache_dir = str(tmp_path / "objects")

        def shim(name: str, version: str) -> str:
            path = tmp_path / name
            path.write_text(
                "#!/bin/sh\n"
                f'if [ "$1" = --version ]; then echo "{version}"; exit 0; fi\n'
                f'exec "{real}" "$@"\n')
            path.chmod(0o755)
            return str(path)

        paths = []
        for name, version in (("cc-a", "shim-cc 1.0"),
                              ("cc-b", "shim-cc 2.0")):
            monkeypatch.setenv("CC", shim(name, version))
            paths.append(compile_kernel(code, func, cache_key="k" * 64,
                                        cache_dir=cache_dir).library_path)
        assert paths[0] != paths[1]

        # A new version behind the same path (as seen by a new process)
        # misses too.
        shim("cc-b", "shim-cc 2.1")
        compiler_identity.cache_clear()
        upgraded = compile_kernel(code, func, cache_key="k" * 64,
                                  cache_dir=cache_dir).library_path
        assert upgraded not in paths

        # Once the identity is memoized, a cache hit forks nothing.
        def no_fork(*args, **kwargs):
            raise AssertionError("a cache hit must not start a process")

        monkeypatch.setattr(subprocess, "run", no_fork)
        monkeypatch.setattr(subprocess, "check_output", no_fork)
        again = compile_kernel(code, func, cache_key="k" * 64,
                               cache_dir=cache_dir)
        assert again.library_path == upgraded
        result = again.run({"a": np.array([[1.0, 2.0, 3.0, 4.0]])})
        np.testing.assert_allclose(result["out"], [[2.0, 4.0, 6.0, 8.0]])
