"""Tests for the FIGURES.md gallery and the `python -m repro plot` verb."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.api import ResultStore, Runner, SweepSpec, iter_experiments
from repro.api.cli import main
from repro.plots import check_gallery, generate_gallery, write_gallery


@pytest.fixture(scope="module")
def fast_store(tmp_path_factory):
    """The whole registry at fast parameters, plus one replicated sweep."""
    store = ResultStore(tmp_path_factory.mktemp("fast-store"))
    runner = Runner()
    runner.run_all(fast=True, store=store)
    sweep = SweepSpec(
        experiment="fig17",
        grid={"phone_power_dbm": [6.0, 10.0]},
        params={"messages_per_point": 10, "step_inches": 8.0},
        engine="batch",
        seed=17,
        replicates=3,
    )
    runner.run_batch(sweep.expand(), store=store)
    return store


class TestGenerateGallery:
    def test_every_registered_experiment_gets_a_figure(self, fast_store):
        text, images = generate_gallery(fast_store)
        for experiment in iter_experiments():
            assert f"## {experiment.name}" in text
            assert f"figures/{experiment.name}.svg" in text
            assert f"{experiment.name}.svg" in images
            assert len(images[f"{experiment.name}.svg"]) > 500

    def test_double_generation_is_byte_identical(self, fast_store):
        first_text, first_images = generate_gallery(fast_store)
        second_text, second_images = generate_gallery(fast_store)
        assert first_text == second_text
        assert first_images == second_images

    def test_replicated_experiment_reports_ci_table(self, fast_store):
        text, _ = generate_gallery(fast_store)
        assert "Replicated metrics at the rendered grid point (3 seeds):" in text
        assert "95% CI half-width" in text

    def test_absent_experiment_listed_with_run_hint(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(Runner().run("table_power"))
        text, images = generate_gallery(store)
        assert list(images) == ["table_power.svg"]
        assert "Not in this store — run `python -m repro run fig06" in text

    def test_gallery_does_not_depend_on_the_working_directory(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        runner = Runner()
        store.append(runner.run("table_power"))
        store.append(runner.run("fig06"))
        monkeypatch.chdir(Path(repro.__file__).resolve().parents[2])
        from_checkout = generate_gallery(store)
        monkeypatch.chdir(tmp_path)
        from_elsewhere = generate_gallery(store)
        assert from_checkout[0] == from_elsewhere[0]
        assert from_checkout[1] == from_elsewhere[1]
        assert sorted(from_elsewhere[1]) == ["fig06.svg", "table_power.svg"]

    def test_image_links_are_relative_to_the_document(self, fast_store):
        text, _ = generate_gallery(fast_store, output="docs/FIGURES.md", figures_dir="docs/img")
        assert "![table_power](img/table_power.svg)" in text


class TestWriteAndCheck:
    def test_write_then_check_passes(self, fast_store, tmp_path):
        gallery = tmp_path / "FIGURES.md"
        figures = tmp_path / "figures"
        write_gallery(fast_store, output=gallery, figures_dir=figures)
        up_to_date, problems = check_gallery(fast_store, output=gallery, figures_dir=figures)
        assert up_to_date and problems == []

    def test_check_flags_stale_document(self, fast_store, tmp_path):
        gallery = tmp_path / "FIGURES.md"
        figures = tmp_path / "figures"
        write_gallery(fast_store, output=gallery, figures_dir=figures)
        gallery.write_text("stale")
        up_to_date, problems = check_gallery(fast_store, output=gallery, figures_dir=figures)
        assert not up_to_date
        assert any("does not match" in problem for problem in problems)

    def test_check_flags_missing_and_tampered_images(self, fast_store, tmp_path):
        gallery = tmp_path / "FIGURES.md"
        figures = tmp_path / "figures"
        write_gallery(fast_store, output=gallery, figures_dir=figures)
        (figures / "fig06.svg").unlink()
        (figures / "fig11.svg").write_bytes(b"tampered")
        up_to_date, problems = check_gallery(fast_store, output=gallery, figures_dir=figures)
        assert not up_to_date
        assert any("missing" in problem for problem in problems)
        assert any("differs" in problem for problem in problems)

    def test_check_flags_orphaned_images(self, fast_store, tmp_path):
        gallery = tmp_path / "FIGURES.md"
        figures = tmp_path / "figures"
        write_gallery(fast_store, output=gallery, figures_dir=figures)
        (figures / "fig99.svg").write_bytes(b"stale figure of a removed experiment")
        up_to_date, problems = check_gallery(fast_store, output=gallery, figures_dir=figures)
        assert not up_to_date
        assert any("orphaned" in problem for problem in problems)

    def test_write_creates_nested_gallery_parent(self, fast_store, tmp_path):
        gallery = tmp_path / "docs" / "sub" / "FIGURES.md"
        figures = tmp_path / "figures"
        write_gallery(fast_store, output=gallery, figures_dir=figures)
        assert gallery.exists()


class TestPlotCli:
    def test_plot_writes_gallery_and_figures(self, fast_store, tmp_path, capsys):
        gallery = tmp_path / "FIGURES.md"
        figures = tmp_path / "figs"
        assert (
            main(
                [
                    "plot",
                    "--store",
                    str(fast_store.root),
                    "--output-dir",
                    str(figures),
                    "--gallery",
                    str(gallery),
                ]
            )
            == 0
        )
        assert gallery.exists()
        rendered = sorted(path.name for path in figures.glob("*.svg"))
        assert rendered == sorted(f"{experiment.name}.svg" for experiment in iter_experiments())
        assert "wrote" in capsys.readouterr().out

    def test_plot_twice_is_byte_identical(self, fast_store, tmp_path):
        gallery = tmp_path / "FIGURES.md"
        figures = tmp_path / "figs"
        args = [
            "plot",
            "--store",
            str(fast_store.root),
            "--output-dir",
            str(figures),
            "--gallery",
            str(gallery),
        ]
        assert main(args) == 0
        first = {path.name: path.read_bytes() for path in figures.glob("*.svg")}
        first_text = gallery.read_text()
        assert main(args) == 0
        second = {path.name: path.read_bytes() for path in figures.glob("*.svg")}
        assert first == second
        assert gallery.read_text() == first_text

    def test_check_manifest_round_trip(self, fast_store, tmp_path, capsys):
        gallery = tmp_path / "FIGURES.md"
        figures = tmp_path / "figs"
        base = [
            "plot",
            "--store",
            str(fast_store.root),
            "--output-dir",
            str(figures),
            "--gallery",
            str(gallery),
        ]
        assert main(base + ["--check-manifest"]) == 1  # nothing committed yet
        capsys.readouterr()
        assert main(base) == 0
        assert main(base + ["--check-manifest"]) == 0
        gallery.write_text("drifted")
        assert main(base + ["--check-manifest"]) == 1
        assert "regenerate with" in capsys.readouterr().err

    def test_custom_output_dir_keeps_gallery_beside_images(self, fast_store, tmp_path, monkeypatch, capsys):
        # The README's "render elsewhere" variant must not clobber a
        # committed FIGURES.md in the current directory.
        monkeypatch.chdir(tmp_path)
        committed = tmp_path / "FIGURES.md"
        committed.write_text("committed gallery")
        figures = tmp_path / "elsewhere"
        assert main(["plot", "--store", str(fast_store.root), "--output-dir", str(figures)]) == 0
        assert committed.read_text() == "committed gallery"
        assert (figures / "FIGURES.md").exists()

    def test_single_experiment_renders_without_gallery(self, fast_store, tmp_path, capsys):
        figures = tmp_path / "figs"
        assert (
            main(
                [
                    "plot",
                    "--store",
                    str(fast_store.root),
                    "--experiment",
                    "fig11",
                    "--output-dir",
                    str(figures),
                ]
            )
            == 0
        )
        assert [path.name for path in figures.glob("*.svg")] == ["fig11.svg"]
        assert not (tmp_path / "FIGURES.md").exists()

    def test_experiment_missing_from_store_fails(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "empty")
        assert (
            main(["plot", "--store", str(store.root), "--experiment", "fig11"]) == 1
        )
        assert "holds no results" in capsys.readouterr().err

    def test_unknown_experiment_fails_before_writing(self, fast_store, tmp_path, capsys):
        figures = tmp_path / "figs"
        code = main(
            [
                "plot",
                "--store",
                str(fast_store.root),
                "--experiment",
                "nope",
                "--output-dir",
                str(figures),
            ]
        )
        assert code == 1
        assert "unknown experiment" in capsys.readouterr().err
        assert not any(figures.glob("*.svg"))

    def test_check_manifest_rejects_experiment_filter(self, fast_store, capsys):
        code = main(
            ["plot", "--store", str(fast_store.root), "--experiment", "fig11", "--check-manifest"]
        )
        assert code == 2
        assert "drop --experiment" in capsys.readouterr().err
