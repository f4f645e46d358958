//! A counting [`Fs`] wrapper around the real filesystem: passed to the
//! crates' `open_on` constructors in traced runs, it counts fsyncs,
//! times each one and counts the bytes written, without changing a
//! single byte that reaches the disk.

use crate::report::Outcome;
use crate::trace::percentile;
use cpc_vfs::{Fs, RealFs, VfsFile};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Default)]
pub struct DiskStats {
    pub fsync_ms: Vec<f64>,
    pub bytes_written: u64,
}

#[derive(Clone, Default)]
pub struct CountingFs {
    stats: Arc<Mutex<DiskStats>>,
}

impl CountingFs {
    /// Reports the `vfs.*` per-layer metrics over `cells` journaled
    /// cells.
    pub fn report(&self, cells: usize, out: &mut Outcome) {
        let s = self.stats.lock().expect("disk stats poisoned");
        let n = cells.max(1) as f64;
        out.metric("vfs.fsyncs_per_cell", s.fsync_ms.len() as f64 / n);
        match percentile(&s.fsync_ms, 50.0) {
            Ok(v) => out.metric("vfs.fsync_p50_ms", v),
            Err(e) => out.fail(format!("vfs.fsync_p50_ms: {e}")),
        }
        out.metric("vfs.bytes_written_per_cell", s.bytes_written as f64 / n);
    }

    fn timed_sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let t0 = Instant::now();
        let r = sync();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.stats
            .lock()
            .expect("disk stats poisoned")
            .fsync_ms
            .push(ms);
        r
    }

    fn wrap(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner,
            fs: self.clone(),
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    fs: CountingFs,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.fs
            .stats
            .lock()
            .expect("disk stats poisoned")
            .bytes_written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        let fs = self.fs.clone();
        fs.timed_sync(|| self.inner.sync())
    }
}

impl Fs for CountingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(RealFs.create(path)?))
    }
    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(RealFs.append(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed_sync(|| RealFs.sync_dir(dir))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.read_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}
