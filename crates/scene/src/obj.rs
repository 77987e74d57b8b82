//! Minimal Wavefront OBJ triangle loader.
//!
//! The evaluation suite is procedural, but downstream users will want to
//! run their own scenes: this loader reads the `v`/`f` subset of OBJ that
//! triangle meshes need (positions and faces, with fans for polygons),
//! ignoring normals, texture coordinates, materials, and groups.

use crate::Mesh;
use rt_geometry::{Triangle, Vec3};
use std::fmt;
use std::io::BufRead;
use std::path::Path;

/// Error from OBJ parsing.
#[derive(Debug)]
pub enum ParseObjError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ParseObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseObjError::Io(e) => write!(f, "i/o error reading obj: {e}"),
            ParseObjError::Malformed { line, message } => {
                write!(f, "malformed obj at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseObjError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseObjError::Io(e) => Some(e),
            ParseObjError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseObjError {
    fn from(e: std::io::Error) -> Self {
        ParseObjError::Io(e)
    }
}

/// Parses OBJ text from `reader` into a triangle mesh.
///
/// Faces with more than three vertices are fan-triangulated. Negative
/// indices (relative references) are supported. Unknown line types are
/// ignored, as OBJ consumers conventionally do.
///
/// # Errors
///
/// Returns [`ParseObjError`] on I/O failure, unparsable coordinates, or
/// out-of-range vertex references.
///
/// # Examples
///
/// ```
/// use rt_scene::parse_obj;
///
/// let obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n";
/// let mesh = parse_obj(obj.as_bytes())?;
/// assert_eq!(mesh.len(), 1);
/// # Ok::<(), rt_scene::ParseObjError>(())
/// ```
pub fn parse_obj<R: BufRead>(reader: R) -> Result<Mesh, ParseObjError> {
    let mut vertices: Vec<Vec3> = Vec::new();
    let mut mesh = Mesh::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("v") => {
                let mut coord = |name: &str| -> Result<f32, ParseObjError> {
                    let text = parts.next().ok_or_else(|| ParseObjError::Malformed {
                        line: line_no,
                        message: format!("vertex missing {name} coordinate"),
                    })?;
                    let value: f32 = text.parse().map_err(|e| ParseObjError::Malformed {
                        line: line_no,
                        message: format!("bad {name} coordinate: {e}"),
                    })?;
                    // `f32::from_str` accepts "nan" and "inf", and
                    // overflows to infinity; a vertex there has no bounds.
                    if !value.is_finite() {
                        return Err(ParseObjError::Malformed {
                            line: line_no,
                            message: format!("non-finite {name} coordinate {text:?}"),
                        });
                    }
                    Ok(value)
                };
                let (x, y, z) = (coord("x")?, coord("y")?, coord("z")?);
                vertices.push(Vec3::new(x, y, z));
            }
            Some("f") => {
                let mut face: Vec<Vec3> = Vec::new();
                for vert in parts {
                    // "i", "i/t", "i/t/n", "i//n" — the index before the
                    // first slash is the position reference.
                    let index_text = vert.split('/').next().unwrap_or(vert);
                    let raw: i64 = index_text.parse().map_err(|e| ParseObjError::Malformed {
                        line: line_no,
                        message: format!("bad face index {index_text:?}: {e}"),
                    })?;
                    let resolved = if raw > 0 {
                        raw as usize - 1
                    } else if raw < 0 {
                        let back = (-raw) as usize;
                        vertices.len().checked_sub(back).ok_or_else(|| {
                            ParseObjError::Malformed {
                                line: line_no,
                                message: format!("relative index {raw} underflows"),
                            }
                        })?
                    } else {
                        return Err(ParseObjError::Malformed {
                            line: line_no,
                            message: "face index 0 is not valid in obj".into(),
                        });
                    };
                    let v = vertices.get(resolved).copied().ok_or_else(|| {
                        ParseObjError::Malformed {
                            line: line_no,
                            message: format!(
                                "face references vertex {raw} but only {} exist",
                                vertices.len()
                            ),
                        }
                    })?;
                    face.push(v);
                }
                if face.len() < 3 {
                    return Err(ParseObjError::Malformed {
                        line: line_no,
                        message: format!("face has {} vertices, need at least 3", face.len()),
                    });
                }
                for i in 1..face.len() - 1 {
                    mesh.push(Triangle::new(face[0], face[i], face[i + 1]));
                }
            }
            // Comments, normals, texcoords, materials, groups, objects...
            _ => {}
        }
    }
    Ok(mesh)
}

/// Writes `mesh` as OBJ text (three `v` lines and one `f` per triangle;
/// no vertex sharing). Coordinates use Rust's shortest round-trip float
/// formatting, so [`parse_obj`] reads back bit-identical triangles.
///
/// # Errors
///
/// Propagates writer failures.
///
/// # Examples
///
/// ```
/// use rt_geometry::{Triangle, Vec3};
/// use rt_scene::{parse_obj, write_obj, Mesh};
///
/// let mesh = Mesh::from_triangles(vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let mut text = Vec::new();
/// write_obj(&mut text, &mesh)?;
/// assert_eq!(parse_obj(text.as_slice())?.triangles(), mesh.triangles());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_obj<W: std::io::Write>(mut w: W, mesh: &Mesh) -> std::io::Result<()> {
    writeln!(w, "# rt-scene export, {} triangles", mesh.len())?;
    for (i, t) in mesh.triangles().iter().enumerate() {
        for v in [t.v0, t.v1, t.v2] {
            writeln!(w, "v {:?} {:?} {:?}", v.x, v.y, v.z)?;
        }
        let base = i * 3;
        writeln!(w, "f {} {} {}", base + 1, base + 2, base + 3)?;
    }
    Ok(())
}

/// Loads an OBJ file from `path`.
///
/// # Errors
///
/// Returns [`ParseObjError`] if the file cannot be read or parsed.
pub fn load_obj<P: AsRef<Path>>(path: P) -> Result<Mesh, ParseObjError> {
    let file = std::fs::File::open(path)?;
    parse_obj(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_triangle() {
        let mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n".as_bytes()).unwrap();
        assert_eq!(mesh.len(), 1);
        let t = mesh.triangles()[0];
        assert_eq!(t.v1, Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn quad_fan_triangulates() {
        let obj = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n";
        let mesh = parse_obj(obj.as_bytes()).unwrap();
        assert_eq!(mesh.len(), 2);
    }

    #[test]
    fn slashed_indices_and_comments() {
        let obj = "# a comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvt 0 0\nf 1/1/1 2/1/1 3/1/1\n";
        let mesh = parse_obj(obj.as_bytes()).unwrap();
        assert_eq!(mesh.len(), 1);
    }

    #[test]
    fn double_slash_indices() {
        let obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1//1 2//1 3//1\n";
        assert_eq!(parse_obj(obj.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn negative_indices_resolve_relative() {
        let obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n";
        let mesh = parse_obj(obj.as_bytes()).unwrap();
        assert_eq!(mesh.len(), 1);
        assert_eq!(mesh.triangles()[0].v0, Vec3::ZERO);
    }

    #[test]
    fn out_of_range_index_errors() {
        let obj = "v 0 0 0\nf 1 2 3\n";
        let err = parse_obj(obj.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn zero_index_errors() {
        let obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n";
        assert!(parse_obj(obj.as_bytes()).is_err());
    }

    #[test]
    fn bad_coordinate_errors_with_line() {
        let err = parse_obj("v 0 zero 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn non_finite_coordinates_error_with_line() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e39"] {
            let obj = format!("v 0 0 0\nv 1 {bad} 0\nv 0 1 0\nf 1 2 3\n");
            match parse_obj(obj.as_bytes()) {
                Err(ParseObjError::Malformed { line, message }) => {
                    assert_eq!(line, 2, "{bad}");
                    assert!(
                        message.contains("non-finite y coordinate"),
                        "{bad}: {message}"
                    );
                }
                other => panic!("{bad}: expected a malformed-line error, got {other:?}"),
            }
        }
    }

    #[test]
    fn two_vertex_face_errors() {
        let obj = "v 0 0 0\nv 1 0 0\nf 1 2\n";
        assert!(parse_obj(obj.as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_mesh() {
        assert!(parse_obj("".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn load_obj_round_trip_via_tempfile() {
        let path = std::env::temp_dir().join("rt_scene_obj_test.obj");
        std::fs::write(&path, "v 0 0 0\nv 2 0 0\nv 0 2 0\nf 1 2 3\n").unwrap();
        let mesh = load_obj(&path).unwrap();
        assert_eq!(mesh.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_obj_round_trips_exactly() {
        use rt_geometry::Triangle;
        let mesh = Mesh::from_triangles(vec![
            Triangle::new(
                Vec3::new(0.1, -2.75, 3.3333333),
                Vec3::new(1e-7, 42.0, -0.0),
                Vec3::new(f32::MIN_POSITIVE, 1.5, 9.25),
            ),
            Triangle::new(
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ),
        ]);
        let mut text = Vec::new();
        write_obj(&mut text, &mesh).unwrap();
        let parsed = parse_obj(text.as_slice()).unwrap();
        assert_eq!(parsed.triangles(), mesh.triangles());
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let err = parse_obj("f 1 2 3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("malformed"));
        assert!(err.source().is_none());
        let io_err = ParseObjError::from(std::io::Error::other("boom"));
        assert!(io_err.source().is_some());
    }
}
