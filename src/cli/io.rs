//! CSV I/O for observation datasets.
//!
//! Format: header `x,y[,t][,z]`, one site per row. The `t` column marks a
//! space–time dataset; the `z` column carries measurements (absent for
//! prediction-target files).

use std::io::{BufRead, Write};
use xgs_covariance::Location;

/// A loaded dataset: sites plus (optionally) one measurement per site.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    pub locs: Vec<Location>,
    pub z: Option<Vec<f64>>,
    pub has_time: bool,
}

/// I/O + format errors.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(m) => write!(f, "csv format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse a dataset from any reader.
pub fn read_dataset<R: BufRead>(reader: R) -> Result<Dataset, IoError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| IoError::Format("empty file".into()))??;
    let cols: Vec<String> = header.split(',').map(|c| c.trim().to_lowercase()).collect();
    let x_idx = find(&cols, "x")?;
    let y_idx = find(&cols, "y")?;
    let t_idx = cols.iter().position(|c| c == "t");
    let z_idx = cols.iter().position(|c| c == "z");

    let mut locs = Vec::new();
    let mut z: Vec<f64> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        // `f64::from_str` accepts `nan` and `inf`; no coordinate or value
        // downstream can be either.
        let get = |idx: usize| -> Result<f64, IoError> {
            fields
                .get(idx)
                .ok_or_else(|| IoError::Format(format!("line {}: missing column", lineno + 2)))?
                .trim()
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| IoError::Format(format!("line {}: bad number", lineno + 2)))
        };
        let x = get(x_idx)?;
        let y = get(y_idx)?;
        let t = match t_idx {
            Some(i) => get(i)?,
            None => 0.0,
        };
        locs.push(Location::new_st(x, y, t));
        if let Some(i) = z_idx {
            z.push(get(i)?);
        }
    }
    Ok(Dataset {
        locs,
        z: z_idx.map(|_| z),
        has_time: t_idx.is_some(),
    })
}

fn find(cols: &[String], name: &str) -> Result<usize, IoError> {
    cols.iter()
        .position(|c| c == name)
        .ok_or_else(|| IoError::Format(format!("missing required column '{name}'")))
}

/// Write a dataset (with optional per-site extras like predictions or
/// uncertainties) to any writer.
pub fn write_dataset<W: Write>(
    mut w: W,
    locs: &[Location],
    columns: &[(&str, &[f64])],
    with_time: bool,
) -> Result<(), IoError> {
    let mut header = String::from("x,y");
    if with_time {
        header.push_str(",t");
    }
    for (name, vals) in columns {
        assert_eq!(vals.len(), locs.len(), "column '{name}' length mismatch");
        header.push(',');
        header.push_str(name);
    }
    writeln!(w, "{header}")?;
    for (i, l) in locs.iter().enumerate() {
        let mut row = format!("{},{}", l.x, l.y);
        if with_time {
            row.push_str(&format!(",{}", l.t));
        }
        for (_, vals) in columns {
            row.push_str(&format!(",{}", vals[i]));
        }
        writeln!(w, "{row}")?;
    }
    Ok(())
}

/// Load a dataset from a path.
pub fn load(path: &str) -> Result<Dataset, IoError> {
    let f = std::fs::File::open(path)?;
    read_dataset(std::io::BufReader::new(f))
}

/// Save to a path.
pub fn save(
    path: &str,
    locs: &[Location],
    columns: &[(&str, &[f64])],
    with_time: bool,
) -> Result<(), IoError> {
    let f = std::fs::File::create(path)?;
    write_dataset(std::io::BufWriter::new(f), locs, columns, with_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_space_dataset() {
        let locs = vec![Location::new(0.1, 0.2), Location::new(0.3, 0.4)];
        let z = vec![1.5, -2.5];
        let mut buf = Vec::new();
        write_dataset(&mut buf, &locs, &[("z", &z)], false).unwrap();
        let ds = read_dataset(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(ds.locs.len(), 2);
        assert!(!ds.has_time);
        assert_eq!(ds.z.as_ref().unwrap(), &z);
        assert_eq!(ds.locs[1].x, 0.3);
    }

    #[test]
    fn roundtrip_spacetime_dataset() {
        let locs = vec![
            Location::new_st(0.1, 0.2, 1.0),
            Location::new_st(0.3, 0.4, 2.0),
        ];
        let mut buf = Vec::new();
        write_dataset(&mut buf, &locs, &[], true).unwrap();
        let ds = read_dataset(std::io::Cursor::new(buf)).unwrap();
        assert!(ds.has_time);
        assert!(ds.z.is_none());
        assert_eq!(ds.locs[1].t, 2.0);
    }

    #[test]
    fn header_order_is_flexible() {
        let csv = "z, y ,x\n7.0,0.2,0.1\n";
        let ds = read_dataset(std::io::Cursor::new(csv)).unwrap();
        assert_eq!(ds.locs[0].x, 0.1);
        assert_eq!(ds.locs[0].y, 0.2);
        assert_eq!(ds.z.unwrap()[0], 7.0);
    }

    #[test]
    fn reports_bad_rows_with_line_numbers() {
        // Not a number, and the non-finite spellings `f64::from_str` takes.
        for bad in [
            "0.3,oops,2.0",
            "nan,0.2,2.0",
            "0.3,inf,2.0",
            "0.3,0.2,-Infinity",
        ] {
            let csv = format!("x,y,z\n0.1,0.2,1.0\n{bad}\n");
            let err = read_dataset(std::io::Cursor::new(csv)).unwrap_err();
            match err {
                IoError::Format(m) => assert!(m.contains("line 3"), "{bad}: {m}"),
                other => panic!("{bad}: wrong error {other}"),
            }
        }
        let err = read_dataset(std::io::Cursor::new("x,y,t\n1,2,NaN\n")).unwrap_err();
        assert!(matches!(err, IoError::Format(m) if m.contains("line 2")));
    }

    #[test]
    fn missing_columns_rejected() {
        let err = read_dataset(std::io::Cursor::new("a,b\n1,2\n")).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
    }

    #[test]
    fn blank_lines_skipped() {
        let csv = "x,y\n0.1,0.2\n\n0.3,0.4\n";
        let ds = read_dataset(std::io::Cursor::new(csv)).unwrap();
        assert_eq!(ds.locs.len(), 2);
    }
}
