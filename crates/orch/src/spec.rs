//! YAML-subset parser for pod creation requests.
//!
//! Clients hand K3s a Yaml file (paper §3.1 step ①). We parse the subset
//! that pod specs actually use — two levels of `key: value` mappings with
//! comments and optional quoting — rather than pulling in a full YAML
//! implementation:
//!
//! ```yaml
//! # a Coral-Pie camera instance
//! name: camera-0
//! image: coral-pie:latest
//! resources:
//!   cpu: 500m
//!   memory: 256Mi
//! nodeSelector:
//!   microedge.io/tpu: "true"
//! antiAffinityGroup: coral-pie
//! extensions:
//!   microedge.io/model: ssd-mobilenet-v2
//!   microedge.io/tpu-units: "0.35"
//! ```
//!
//! CPU quantities accept the K8s forms `500m` (millicores) or `2` (cores);
//! memory accepts `Ki`/`Mi`/`Gi` suffixes or plain bytes.

use std::fmt;

use crate::pod::{PodSpec, PodSpecBuilder, ResourceRequest};

/// Error produced when a pod spec file cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    line: usize,
    message: String,
}

impl ParseSpecError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseSpecError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number the error was detected on (0 for file-level
    /// errors).
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSpecError {}

/// Parses a K8s CPU quantity: `500m` → 500 millicores, `2` → 2000.
fn parse_cpu(line: usize, raw: &str) -> Result<u32, ParseSpecError> {
    let parsed = if let Some(milli) = raw.strip_suffix('m') {
        milli.parse::<u32>().ok()
    } else {
        raw.parse::<u32>().ok().and_then(|c| c.checked_mul(1000))
    };
    parsed.ok_or_else(|| ParseSpecError::new(line, format!("invalid cpu quantity `{raw}`")))
}

/// Parses a K8s memory quantity: `256Mi`, `1Gi`, `512Ki`, or plain bytes.
fn parse_memory(line: usize, raw: &str) -> Result<u64, ParseSpecError> {
    let (digits, multiplier) = if let Some(d) = raw.strip_suffix("Gi") {
        (d, 1024 * 1024 * 1024)
    } else if let Some(d) = raw.strip_suffix("Mi") {
        (d, 1024 * 1024)
    } else if let Some(d) = raw.strip_suffix("Ki") {
        (d, 1024)
    } else {
        (raw, 1)
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(multiplier))
        .ok_or_else(|| ParseSpecError::new(line, format!("invalid memory quantity `{raw}`")))
}

fn unquote(value: &str) -> &str {
    let v = value.trim();
    if v.len() >= 2
        && ((v.starts_with('"') && v.ends_with('"')) || (v.starts_with('\'') && v.ends_with('\'')))
    {
        &v[1..v.len() - 1]
    } else {
        v
    }
}

/// One parsed line: indentation level (0 or 1), key, optional value.
fn split_line(
    lineno: usize,
    line: &str,
) -> Result<Option<(usize, String, String)>, ParseSpecError> {
    let without_comment = match line.find('#') {
        // Allow '#' inside quoted values by only stripping comments that
        // start at the beginning or after whitespace.
        Some(idx) if idx == 0 || line[..idx].ends_with(char::is_whitespace) => &line[..idx],
        _ => line,
    };
    if without_comment.trim().is_empty() {
        return Ok(None);
    }
    let indent_chars = without_comment.len() - without_comment.trim_start().len();
    let level = match indent_chars {
        0 => 0,
        2 => 1,
        n => {
            return Err(ParseSpecError::new(
                lineno,
                format!("unsupported indentation of {n} spaces (use 0 or 2)"),
            ))
        }
    };
    let body = without_comment.trim();
    let (key, value) = body.split_once(':').ok_or_else(|| {
        ParseSpecError::new(lineno, format!("expected `key: value`, got `{body}`"))
    })?;
    Ok(Some((
        level,
        key.trim().to_owned(),
        unquote(value).to_owned(),
    )))
}

/// Parses a pod spec from the YAML subset described in the module docs.
///
/// # Errors
///
/// Returns [`ParseSpecError`] on malformed lines, unknown top-level keys,
/// missing mandatory fields (`name`, `image`), or invalid resource
/// quantities.
///
/// # Examples
///
/// ```
/// use microedge_orch::spec::parse_pod_spec;
///
/// let spec = parse_pod_spec("name: cam\nimage: app:v1\n")?;
/// assert_eq!(spec.name(), "cam");
/// # Ok::<(), microedge_orch::spec::ParseSpecError>(())
/// ```
pub fn parse_pod_spec(text: &str) -> Result<PodSpec, ParseSpecError> {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        None,
        Resources,
        NodeSelector,
        Extensions,
    }

    let mut name: Option<String> = None;
    let mut image: Option<String> = None;
    let mut cpu: Option<u32> = None;
    let mut memory: Option<u64> = None;
    let mut anti_affinity: Option<String> = None;
    let mut selectors: Vec<(String, String)> = Vec::new();
    let mut extensions: Vec<(String, String)> = Vec::new();
    let mut section = Section::None;

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let Some((level, key, value)) = split_line(lineno, raw_line)? else {
            continue;
        };
        if level == 0 {
            section = Section::None;
            let opens_section = matches!(key.as_str(), "resources" | "nodeSelector" | "extensions");
            if opens_section && !value.is_empty() {
                return Err(ParseSpecError::new(
                    lineno,
                    format!("`{key}` opens a section and takes no inline value"),
                ));
            }
            match key.as_str() {
                "name" => name = Some(value),
                "image" => image = Some(value),
                "antiAffinityGroup" => anti_affinity = Some(value),
                "resources" => section = Section::Resources,
                "nodeSelector" => section = Section::NodeSelector,
                "extensions" => section = Section::Extensions,
                other => {
                    return Err(ParseSpecError::new(
                        lineno,
                        format!("unknown top-level key `{other}`"),
                    ))
                }
            }
        } else {
            match section {
                Section::Resources => match key.as_str() {
                    "cpu" => cpu = Some(parse_cpu(lineno, &value)?),
                    "memory" => memory = Some(parse_memory(lineno, &value)?),
                    other => {
                        return Err(ParseSpecError::new(
                            lineno,
                            format!("unknown resource `{other}`"),
                        ))
                    }
                },
                Section::NodeSelector => selectors.push((key, value)),
                Section::Extensions => extensions.push((key, value)),
                Section::None => {
                    return Err(ParseSpecError::new(
                        lineno,
                        "indented line outside any section",
                    ))
                }
            }
        }
    }

    let name = name.ok_or_else(|| ParseSpecError::new(0, "missing mandatory field `name`"))?;
    let image = image.ok_or_else(|| ParseSpecError::new(0, "missing mandatory field `image`"))?;
    if name.is_empty() {
        return Err(ParseSpecError::new(0, "`name` must be non-empty"));
    }
    if image.is_empty() {
        return Err(ParseSpecError::new(0, "`image` must be non-empty"));
    }

    let defaults = ResourceRequest::camera_default();
    let resources = ResourceRequest::new(
        cpu.unwrap_or_else(|| defaults.cpu_millis()),
        memory.unwrap_or_else(|| defaults.mem_bytes()),
    );

    let mut builder: PodSpecBuilder = PodSpec::builder(&name, &image).resources(resources);
    if let Some(group) = anti_affinity {
        builder = builder.anti_affinity_group(&group);
    }
    for (k, v) in &selectors {
        builder = builder.node_selector(k, v);
    }
    for (k, v) in &extensions {
        builder = builder.extension(k, v);
    }
    Ok(builder.build())
}

/// Parses a multi-document spec file: documents separated by `---` lines,
/// as in Kubernetes manifests. Empty documents are skipped.
///
/// # Errors
///
/// Returns the first document's [`ParseSpecError`] on failure.
///
/// # Examples
///
/// ```
/// use microedge_orch::spec::parse_pod_specs;
///
/// let specs = parse_pod_specs("name: a\nimage: i\n---\nname: b\nimage: i\n")?;
/// assert_eq!(specs.len(), 2);
/// # Ok::<(), microedge_orch::spec::ParseSpecError>(())
/// ```
pub fn parse_pod_specs(text: &str) -> Result<Vec<PodSpec>, ParseSpecError> {
    text.split("\n---")
        .map(|doc| doc.strip_prefix("---").unwrap_or(doc))
        .filter(|doc| {
            doc.lines()
                .any(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        })
        .map(parse_pod_spec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::{EXT_MODEL, EXT_TPU_UNITS};

    const FULL: &str = r#"
# a Coral-Pie camera instance
name: camera-0
image: coral-pie:latest
resources:
  cpu: 500m
  memory: 256Mi
nodeSelector:
  microedge.io/tpu: "true"
antiAffinityGroup: coral-pie
extensions:
  microedge.io/model: ssd-mobilenet-v2
  microedge.io/tpu-units: "0.35"
"#;

    #[test]
    fn full_spec_parses() {
        let spec = parse_pod_spec(FULL).unwrap();
        assert_eq!(spec.name(), "camera-0");
        assert_eq!(spec.image(), "coral-pie:latest");
        assert_eq!(spec.resources().cpu_millis(), 500);
        assert_eq!(spec.resources().mem_bytes(), 256 * 1024 * 1024);
        assert_eq!(
            spec.node_selector(),
            [("microedge.io/tpu".to_owned(), "true".to_owned())]
        );
        assert_eq!(spec.anti_affinity_group(), Some("coral-pie"));
        assert_eq!(spec.extension(EXT_MODEL), Some("ssd-mobilenet-v2"));
        assert_eq!(spec.extension(EXT_TPU_UNITS), Some("0.35"));
    }

    #[test]
    fn minimal_spec_uses_defaults() {
        let spec = parse_pod_spec("name: p\nimage: i\n").unwrap();
        assert_eq!(spec.resources(), ResourceRequest::camera_default());
        assert!(spec.extensions().is_empty());
    }

    #[test]
    fn cpu_quantities() {
        let spec = parse_pod_spec("name: p\nimage: i\nresources:\n  cpu: 2\n").unwrap();
        assert_eq!(spec.resources().cpu_millis(), 2000);
        let spec = parse_pod_spec("name: p\nimage: i\nresources:\n  cpu: 250m\n").unwrap();
        assert_eq!(spec.resources().cpu_millis(), 250);
    }

    #[test]
    fn memory_quantities() {
        for (raw, expect) in [
            ("512Ki", 512 * 1024),
            ("3Mi", 3 * 1024 * 1024),
            ("1Gi", 1024 * 1024 * 1024),
            ("12345", 12345),
        ] {
            let text = format!("name: p\nimage: i\nresources:\n  memory: {raw}\n");
            let spec = parse_pod_spec(&text).unwrap();
            assert_eq!(spec.resources().mem_bytes(), expect, "{raw}");
        }
    }

    #[test]
    fn missing_name_is_an_error() {
        let err = parse_pod_spec("image: i\n").unwrap_err();
        assert!(err.to_string().contains("name"));
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = parse_pod_spec("name: p\nimage: i\nbogus: x\n").unwrap_err();
        assert!(err.to_string().contains("bogus"));
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn bad_cpu_is_an_error() {
        let err = parse_pod_spec("name: p\nimage: i\nresources:\n  cpu: lots\n").unwrap_err();
        assert!(err.to_string().contains("cpu"));
    }

    #[test]
    fn bad_indentation_is_an_error() {
        let err = parse_pod_spec("name: p\nimage: i\nresources:\n    cpu: 1\n").unwrap_err();
        assert!(err.to_string().contains("indentation"));
    }

    #[test]
    fn indented_line_outside_section_is_an_error() {
        let err = parse_pod_spec("name: p\n  stray: x\n").unwrap_err();
        assert!(err.to_string().contains("outside any section"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let spec = parse_pod_spec("# hello\n\nname: p # trailing\nimage: i\n").unwrap();
        assert_eq!(spec.name(), "p");
    }

    #[test]
    fn quoted_values_unquoted() {
        let spec = parse_pod_spec("name: 'p'\nimage: \"i:v1\"\n").unwrap();
        assert_eq!(spec.name(), "p");
        assert_eq!(spec.image(), "i:v1");
    }

    #[test]
    fn multi_document_files_parse() {
        let text = "name: a\nimage: i\n---\nname: b\nimage: j\nresources:\n  cpu: 250m\n";
        let specs = parse_pod_specs(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name(), "a");
        assert_eq!(specs[1].image(), "j");
        assert_eq!(specs[1].resources().cpu_millis(), 250);
    }

    #[test]
    fn empty_documents_are_skipped() {
        let text = "---\n\n---\nname: only\nimage: i\n---\n# comment only\n";
        let specs = parse_pod_specs(text).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name(), "only");
    }

    #[test]
    fn multi_document_errors_propagate() {
        let text = "name: ok\nimage: i\n---\nbogus: x\n";
        assert!(parse_pod_specs(text).is_err());
    }
}
