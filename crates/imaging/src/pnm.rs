//! Reading and writing of portable anymap (PNM) images.
//!
//! The binary formats P5 (PGM, grayscale) and P6 (PPM, RGB) are supported
//! for both reading and writing, which is enough to inspect every input
//! image and predicted mask produced by the experiment harnesses with any
//! standard image viewer.

use crate::{GrayImage, ImagingError, Result, RgbImage};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Serialises a grayscale image as binary PGM (P5).
pub fn write_pgm<W: Write>(image: &GrayImage, mut writer: W) -> Result<()> {
    writeln!(writer, "P5")?;
    writeln!(writer, "{} {}", image.width(), image.height())?;
    writeln!(writer, "255")?;
    writer.write_all(image.as_raw())?;
    Ok(())
}

/// Serialises an RGB image as binary PPM (P6).
pub fn write_ppm<W: Write>(image: &RgbImage, mut writer: W) -> Result<()> {
    writeln!(writer, "P6")?;
    writeln!(writer, "{} {}", image.width(), image.height())?;
    writeln!(writer, "255")?;
    writer.write_all(image.as_raw())?;
    Ok(())
}

/// Writes a grayscale image to `path` as binary PGM.
///
/// # Errors
///
/// Returns [`ImagingError::Io`] on filesystem errors.
pub fn save_pgm<P: AsRef<Path>>(image: &GrayImage, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_pgm(image, std::io::BufWriter::new(file))
}

/// Header shared by P5/P6 parsing.
struct PnmHeader {
    magic: String,
    width: usize,
    height: usize,
    max_value: usize,
}

fn parse_header<R: BufRead>(reader: &mut R) -> Result<PnmHeader> {
    // Tokens are whitespace separated; `#` starts a comment until end of line.
    let mut tokens: Vec<String> = Vec::new();
    let mut in_comment = false;
    let mut current = String::new();
    while tokens.len() < 4 {
        let mut byte = [0u8; 1];
        let n = reader.read(&mut byte)?;
        if n == 0 {
            return Err(ImagingError::ParsePnm {
                message: "unexpected end of file while reading header".to_string(),
            });
        }
        let c = byte[0] as char;
        if in_comment {
            if c == '\n' {
                in_comment = false;
            }
            continue;
        }
        if c == '#' {
            in_comment = true;
            continue;
        }
        if c.is_whitespace() {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        } else {
            current.push(c);
        }
    }
    let parse = |s: &str| -> Result<usize> {
        s.parse().map_err(|_| ImagingError::ParsePnm {
            message: format!("invalid numeric header token `{s}`"),
        })
    };
    Ok(PnmHeader {
        magic: tokens[0].clone(),
        width: parse(&tokens[1])?,
        height: parse(&tokens[2])?,
        max_value: parse(&tokens[3])?,
    })
}

/// Parses a binary PGM (P5) image from a reader.
///
/// # Errors
///
/// Returns [`ImagingError::ParsePnm`] for malformed content and
/// [`ImagingError::Io`] for underlying read failures.
pub fn read_pgm<R: Read>(reader: R) -> Result<GrayImage> {
    let mut reader = BufReader::new(reader);
    let header = parse_header(&mut reader)?;
    if header.magic != "P5" {
        return Err(ImagingError::ParsePnm {
            message: format!("expected magic P5, found {}", header.magic),
        });
    }
    if header.max_value != 255 {
        return Err(ImagingError::ParsePnm {
            message: format!(
                "only 8-bit images are supported, max value {}",
                header.max_value
            ),
        });
    }
    let mut data = vec![0u8; header.width * header.height];
    reader
        .read_exact(&mut data)
        .map_err(|_| ImagingError::ParsePnm {
            message: "pixel payload shorter than declared dimensions".to_string(),
        })?;
    GrayImage::from_raw(header.width, header.height, data)
}

/// Parses a binary PPM (P6) image from a reader.
///
/// # Errors
///
/// Returns [`ImagingError::ParsePnm`] for malformed content and
/// [`ImagingError::Io`] for underlying read failures.
pub fn read_ppm<R: Read>(reader: R) -> Result<RgbImage> {
    let mut reader = BufReader::new(reader);
    let header = parse_header(&mut reader)?;
    if header.magic != "P6" {
        return Err(ImagingError::ParsePnm {
            message: format!("expected magic P6, found {}", header.magic),
        });
    }
    if header.max_value != 255 {
        return Err(ImagingError::ParsePnm {
            message: format!(
                "only 8-bit images are supported, max value {}",
                header.max_value
            ),
        });
    }
    let mut data = vec![0u8; header.width * header.height * 3];
    reader
        .read_exact(&mut data)
        .map_err(|_| ImagingError::ParsePnm {
            message: "pixel payload shorter than declared dimensions".to_string(),
        })?;
    RgbImage::from_raw(header.width, header.height, data)
}

/// Loads a binary PGM from `path`.
///
/// # Errors
///
/// Returns [`ImagingError::Io`] on filesystem errors and
/// [`ImagingError::ParsePnm`] for malformed files.
pub fn load_pgm<P: AsRef<Path>>(path: P) -> Result<GrayImage> {
    read_pgm(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip_preserves_pixels() {
        let img = GrayImage::from_raw(3, 2, vec![0, 50, 100, 150, 200, 255]).unwrap();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(buf.as_slice()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn ppm_roundtrip_preserves_pixels() {
        let mut img = RgbImage::new(2, 2).unwrap();
        img.set(0, 0, [1, 2, 3]).unwrap();
        img.set(1, 1, [250, 128, 7]).unwrap();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = read_ppm(buf.as_slice()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn header_comments_are_skipped() {
        let mut payload = b"P5\n# a comment line\n2 1\n255\n".to_vec();
        payload.extend_from_slice(&[7, 9]);
        let img = read_pgm(payload.as_slice()).unwrap();
        assert_eq!(img.get(0, 0).unwrap(), 7);
        assert_eq!(img.get(1, 0).unwrap(), 9);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = Vec::new();
        write_pgm(&GrayImage::new(1, 1).unwrap(), &mut buf).unwrap();
        assert!(matches!(
            read_ppm(buf.as_slice()),
            Err(ImagingError::ParsePnm { .. })
        ));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = b"P5\n4 4\n255\nab".to_vec();
        assert!(matches!(
            read_pgm(payload.as_slice()),
            Err(ImagingError::ParsePnm { .. })
        ));
    }

    #[test]
    fn non_numeric_header_is_rejected() {
        let payload = b"P5\nwide tall\n255\n".to_vec();
        assert!(matches!(
            read_pgm(payload.as_slice()),
            Err(ImagingError::ParsePnm { .. })
        ));
    }

    #[test]
    fn non_8bit_depth_is_rejected() {
        let payload = b"P5\n1 1\n65535\n\x00\x00".to_vec();
        assert!(matches!(
            read_pgm(payload.as_slice()),
            Err(ImagingError::ParsePnm { .. })
        ));
    }

    #[test]
    fn file_save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("seghdc_pnm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pgm");
        let img = GrayImage::from_raw(2, 2, vec![9, 8, 7, 6]).unwrap();
        save_pgm(&img, &path).unwrap();
        let back = load_pgm(&path).unwrap();
        assert_eq!(back, img);
        std::fs::remove_file(&path).ok();
    }
}
