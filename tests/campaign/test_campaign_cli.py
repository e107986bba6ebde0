"""End-to-end tests of ``python -m repro.campaign`` and the service CLI cross-link."""

import json

import pytest

from repro.campaign import CampaignReport, CampaignSpec
from repro.campaign.__main__ import build_parser, main
from repro.service.__main__ import main as service_main

RUN_FLAGS = [
    "--scenarios",
    "paper-default",
    "short-hyperperiod",
    "--methods",
    "static",
    "gpiocp",
    "--systems",
    "1",
    "--utilisations",
    "0.4",
]


def flag_spec() -> CampaignSpec:
    return CampaignSpec(
        name="flags",
        scenarios=("paper-default", "short-hyperperiod"),
        methods=("static", "gpiocp"),
        n_systems=1,
        utilisations=(0.4,),
    )


class TestRun:
    def test_flag_built_run_then_resume_then_report(self, tmp_path, capsys):
        artifact_dir = str(tmp_path / "campaigns")
        args = ["run", "--name", "flags", *RUN_FLAGS, "--artifact-dir", artifact_dir]

        assert main([*args, "--report", "none"]) == 0
        err = capsys.readouterr().err
        assert "4 evaluated, 0 resumed, 4/4 cells done" in err

        # Resume recomputes zero cells.
        assert main([*args, "--resume", "--report", "none"]) == 0
        err = capsys.readouterr().err
        assert "0 evaluated, 4 resumed, 4/4 cells done" in err

        # Report discovers the single campaign in the directory.
        out_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "report",
                    "--artifact-dir",
                    artifact_dir,
                    "--format",
                    "json",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        report = CampaignReport.from_json(out_path.read_text())
        assert report.complete
        assert report.campaign_key == flag_spec().content_key()

    def test_existing_progress_without_resume_is_an_error(self, tmp_path):
        artifact_dir = str(tmp_path / "campaigns")
        args = ["run", *RUN_FLAGS, "--artifact-dir", artifact_dir, "--report", "none"]
        assert main(args) == 0
        with pytest.raises(SystemExit):
            main(args)

    def test_spec_file_and_builder_flags_are_mutually_exclusive(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(flag_spec().to_json())
        with pytest.raises(SystemExit):
            main(["run", str(path), "--scenarios", "paper-default"])
        with pytest.raises(SystemExit):
            main(["run", str(path), "--name", "renamed"])  # --name is a builder flag too

    def test_spec_file_run_markdown_report(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(flag_spec().to_json())
        assert main(["run", str(path), "--report", "md"]) == 0
        out = capsys.readouterr().out
        assert "# Campaign report — flags" in out
        assert "| rank | method | overall |" in out

    def test_max_cells_interrupts_and_reports_partial(self, tmp_path, capsys):
        artifact_dir = str(tmp_path / "campaigns")
        args = ["run", *RUN_FLAGS, "--artifact-dir", artifact_dir]
        assert main([*args, "--max-cells", "3", "--report", "none"]) == 0
        err = capsys.readouterr().err
        assert "3 evaluated, 0 resumed, 3/4 cells done" in err
        assert "--resume" in err

        # report warns on partial coverage
        assert main(["report", "--artifact-dir", artifact_dir]) == 0
        captured = capsys.readouterr()
        assert "3/4" in captured.err

    def test_report_on_unrun_spec_leaves_no_phantom_directory(self, tmp_path, capsys):
        artifact_dir = tmp_path / "campaigns"
        assert main(["run", *RUN_FLAGS, "--artifact-dir", str(artifact_dir), "--report", "none"]) == 0
        capsys.readouterr()

        # Reporting on a spec that was never executed must not create its
        # artifact directory (which would break auto-discovery forever).
        other = tmp_path / "other.json"
        other.write_text(
            CampaignSpec(name="never-ran", scenarios=("wide-noc",), methods=("static",)).to_json()
        )
        assert main(["report", str(other), "--artifact-dir", str(artifact_dir)]) == 0
        captured = capsys.readouterr()
        assert "0/1" in captured.err
        assert len(list(artifact_dir.iterdir())) == 1  # only the real campaign

        # Auto-discovery still finds exactly one campaign.
        assert main(["report", "--artifact-dir", str(artifact_dir)]) == 0

    def test_invalid_inputs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["run", "--resume"])  # --resume without --artifact-dir
        with pytest.raises(SystemExit):
            main(["run", "--scenarios", "no-such-scenario"])
        with pytest.raises(SystemExit):
            main(["report", "--artifact-dir", str(tmp_path / "empty")])
        with pytest.raises(SystemExit):
            main([])  # a subcommand is required


class TestListings:
    def test_list_prints_scenarios_with_content_keys_and_methods(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "paper-default" in out
        # Each preset line carries its 16-hex content key.
        from repro.scenario import create_scenario

        assert create_scenario("paper-default").content_key() in out
        assert "static" in out and "gpiocp" in out

    def test_parser_metadata(self):
        assert "repro.campaign" in build_parser().prog


class TestCrossLinks:
    def test_service_cli_campaign_batch(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(flag_spec().to_json())
        out_path = tmp_path / "responses.jsonl"
        assert service_main(["--campaign", str(path), "-o", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == flag_spec().n_cells == 4
        for line in lines:
            payload = json.loads(line)
            assert payload["kind"] == "repro/schedule-response"

    def test_service_cli_campaign_excludes_other_sources(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(flag_spec().to_json())
        with pytest.raises(SystemExit):
            service_main(
                ["--campaign", str(path), "--scenario", "paper-default"]
            )
