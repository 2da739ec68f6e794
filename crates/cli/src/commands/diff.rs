//! `diff`: compares two exported run artifacts.

use super::*;

/// Diffs two exported run artifacts (metrics snapshots or profile trees).
pub(super) fn diff(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "text", &["text", "json"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err(
            "diff needs exactly two artifact paths: wfsm diff RUN_A.json RUN_B.json".into(),
        );
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Artifact::parse(path, &text)
    };
    let diff = RunDiff::between(&read(a)?, &read(b)?)?;
    Ok(match format {
        "json" => diff.to_json_string(),
        _ => diff.to_text(),
    })
}
