//! Out-of-core tiled outdoor worlds at Semantic3D scale.
//!
//! A [`TiledWorld`] materializes the procedural outdoor scene as a
//! `tiles_x x tiles_y` grid. Each tile is an independent outdoor scene
//! whose seed derives from the world seed via [`crate::mix_seed`], so
//! any tile regenerates bit-identically on demand without touching its
//! neighbors; its points are stored as fixed-width column shards
//! ([`shard`]) that are memory-mapped back in ([`mmap`]) under an LRU
//! residency cache with a hard byte budget ([`residency`]).
//!
//! The [`TileStore`] trait abstracts the storage backend so the
//! streaming attack driver runs unchanged over shard-backed worlds
//! ([`ShardStore`]) and fully-resident ones ([`MemStore`]) — which is
//! also how streaming ≡ in-core bit-identity is tested.

pub mod mmap;
pub mod residency;
pub mod shard;

pub use residency::{ResidencyCache, ResidencyStats};
pub use shard::{Column, ShardError, ShardHeader};

use crate::{mix_seed, outdoor, OutdoorSceneConfig, PointCloud, OUTDOOR_CLASS_COUNT};
use colper_geom::Point3;
use mmap::ShardMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shard::HEADER_LEN;
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Grid coordinates of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId {
    /// Column index, `0..tiles_x`.
    pub x: u32,
    /// Row index, `0..tiles_y`.
    pub y: u32,
}

/// Tiled-world failures: shard IO/structure errors, residency budget
/// violations and unusable world configurations.
#[derive(Debug)]
pub enum TiledError {
    /// A shard could not be read, parsed, or written.
    Shard(ShardError),
    /// A tile side length that is not a positive finite number of meters
    /// (from a configuration or a `world.meta`).
    BadExtent(f32),
    /// A tile load would push resident bytes past the hard budget.
    BudgetExceeded {
        /// Bytes that would have been resident.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl fmt::Display for TiledError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TiledError::Shard(e) => write!(f, "{e}"),
            TiledError::BadExtent(e) => {
                write!(f, "tile extent must be a positive finite number of meters, got {e}")
            }
            TiledError::BudgetExceeded { needed, budget } => {
                write!(f, "tile residency budget exceeded: {needed} bytes needed, budget {budget}")
            }
        }
    }
}

impl std::error::Error for TiledError {}

impl From<ShardError> for TiledError {
    fn from(e: ShardError) -> Self {
        TiledError::Shard(e)
    }
}

impl From<std::io::Error> for TiledError {
    fn from(e: std::io::Error) -> Self {
        TiledError::Shard(ShardError::Io(e))
    }
}

/// Configuration for materializing a tiled world.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledWorldConfig {
    /// Tiles along x.
    pub tiles_x: u32,
    /// Tiles along y.
    pub tiles_y: u32,
    /// Exact points per tile.
    pub points_per_tile: usize,
    /// Side length of each square tile in meters.
    pub tile_extent: f32,
    /// World seed; tile `(x, y)` generates from
    /// `mix_seed(world_seed, x, y)`.
    pub world_seed: u64,
    /// Ground sampling density passed to the outdoor generator.
    pub density: f32,
    /// Lighting jitter passed to the outdoor generator.
    pub lighting_jitter: f32,
    /// Guarantee a car per tile.
    pub ensure_car: bool,
}

impl Default for TiledWorldConfig {
    fn default() -> Self {
        Self {
            tiles_x: 4,
            tiles_y: 4,
            points_per_tile: 4096,
            tile_extent: 30.0,
            world_seed: 0x5354_5245_414D,
            density: 4.0,
            lighting_jitter: 0.15,
            ensure_car: true,
        }
    }
}

impl TiledWorldConfig {
    /// A `tiles x tiles` world with `points_per_tile` points each.
    pub fn grid(tiles: u32, points_per_tile: usize) -> Self {
        Self { tiles_x: tiles, tiles_y: tiles, points_per_tile, ..Self::default() }
    }

    /// Total points in the world.
    pub fn total_points(&self) -> u64 {
        self.tiles_x as u64 * self.tiles_y as u64 * self.points_per_tile as u64
    }

    /// On-disk bytes per tile (all five column shards, headers included).
    pub fn tile_bytes(&self) -> usize {
        let per_point: usize = Column::ALL.iter().map(|c| c.record_width()).sum();
        self.points_per_tile * per_point + Column::ALL.len() * HEADER_LEN
    }

    /// Checks what tile generation assumes of the configuration: a
    /// positive finite tile extent.
    fn validate(&self) -> Result<(), TiledError> {
        if self.tile_extent.is_finite() && self.tile_extent > 0.0 {
            Ok(())
        } else {
            Err(TiledError::BadExtent(self.tile_extent))
        }
    }

    /// The per-tile scene configuration.
    fn scene_config(&self) -> OutdoorSceneConfig {
        OutdoorSceneConfig {
            n_points: self.points_per_tile,
            extent: self.tile_extent,
            density: self.density,
            lighting_jitter: self.lighting_jitter,
            ensure_car: self.ensure_car,
            ..OutdoorSceneConfig::default()
        }
    }
}

const META_MAGIC: [u8; 4] = *b"CWLD";
const META_VERSION: u16 = 1;
const META_LEN: usize = 45;
const META_FILE: &str = "world.meta";

/// A tiled world rooted at a directory of column shards.
pub struct TiledWorld {
    dir: PathBuf,
    cfg: TiledWorldConfig,
}

impl TiledWorld {
    /// Generates every tile of `cfg` under `dir` (created if absent) and
    /// returns the opened world. Tiles generate in parallel on the
    /// ambient [`colper_runtime`] runtime; because each tile's stream
    /// derives only from `mix_seed(world_seed, x, y)`, the shard bytes
    /// are identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`TiledError::BadExtent`] for a tile extent that is not a positive
    /// finite number (before anything is written), or a shard error.
    pub fn create(dir: &Path, cfg: &TiledWorldConfig) -> Result<TiledWorld, TiledError> {
        cfg.validate()?;
        std::fs::create_dir_all(dir)?;
        let world = TiledWorld { dir: dir.to_path_buf(), cfg: cfg.clone() };
        world.write_meta()?;
        let ids = world.tile_ids();
        let runtime = colper_runtime::current();
        let results: Vec<Result<(), TiledError>> = runtime.par_map_grained(ids.len(), 1, |i| {
            let id = ids[i];
            let cloud = world.generate_tile(id);
            world.write_tile(id, &cloud)
        });
        for r in results {
            r?;
        }
        Ok(world)
    }

    /// Opens an existing world from its `world.meta`.
    ///
    /// # Errors
    ///
    /// A shard error for a missing or malformed `world.meta`, and
    /// [`TiledError::BadExtent`] for one whose tile extent is not a
    /// positive finite number.
    pub fn open(dir: &Path) -> Result<TiledWorld, TiledError> {
        let path = dir.join(META_FILE);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let cfg = decode_meta(&path, &bytes)?;
        Ok(TiledWorld { dir: dir.to_path_buf(), cfg })
    }

    /// The world's configuration.
    pub fn config(&self) -> &TiledWorldConfig {
        &self.cfg
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All tile ids in row-major order (the canonical reduction order).
    pub fn tile_ids(&self) -> Vec<TileId> {
        let mut ids = Vec::with_capacity((self.cfg.tiles_x * self.cfg.tiles_y) as usize);
        for y in 0..self.cfg.tiles_y {
            for x in 0..self.cfg.tiles_x {
                ids.push(TileId { x, y });
            }
        }
        ids
    }

    /// The deterministic seed tile `id` generates from.
    pub fn tile_seed(&self, id: TileId) -> u64 {
        mix_seed(self.cfg.world_seed, id.x as u64, id.y as u64)
    }

    /// World-space origin (min corner) of tile `id`.
    pub fn tile_origin(&self, id: TileId) -> (f32, f32) {
        (id.x as f32 * self.cfg.tile_extent, id.y as f32 * self.cfg.tile_extent)
    }

    /// Regenerates tile `id` from its seed — bit-identical to the cloud
    /// that was sharded at [`TiledWorld::create`] time.
    pub fn generate_tile(&self, id: TileId) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(self.tile_seed(id));
        let mut cloud = outdoor::generate_scene(&self.cfg.scene_config(), &mut rng);
        let (ox, oy) = self.tile_origin(id);
        for p in &mut cloud.coords {
            p.x += ox;
            p.y += oy;
        }
        cloud
    }

    fn tile_dir(&self, id: TileId) -> PathBuf {
        self.dir.join("tiles").join(format!("{:04}_{:04}", id.x, id.y))
    }

    fn header_for(&self, id: TileId, column: Column, count: usize) -> ShardHeader {
        ShardHeader {
            column,
            record_count: count as u64,
            tile_x: id.x,
            tile_y: id.y,
            world_seed: self.cfg.world_seed,
            num_classes: OUTDOOR_CLASS_COUNT as u16,
        }
    }

    /// Writes all five column shards for `cloud` under tile `id`.
    pub fn write_tile(&self, id: TileId, cloud: &PointCloud) -> Result<(), TiledError> {
        let dir = self.tile_dir(id);
        std::fs::create_dir_all(&dir)?;
        let n = cloud.len();
        let mut x = Vec::with_capacity(n * 4);
        let mut y = Vec::with_capacity(n * 4);
        let mut z = Vec::with_capacity(n * 4);
        for p in &cloud.coords {
            x.extend_from_slice(&p.x.to_le_bytes());
            y.extend_from_slice(&p.y.to_le_bytes());
            z.extend_from_slice(&p.z.to_le_bytes());
        }
        let mut rgb = Vec::with_capacity(n * 12);
        for c in &cloud.colors {
            for ch in c {
                rgb.extend_from_slice(&ch.to_le_bytes());
            }
        }
        let labels: Vec<u8> = cloud.labels.iter().map(|&l| l as u8).collect();
        for (column, payload) in [
            (Column::X, &x),
            (Column::Y, &y),
            (Column::Z, &z),
            (Column::Rgb, &rgb),
            (Column::Label, &labels),
        ] {
            shard::write_shard(
                &dir.join(column.file_name()),
                &self.header_for(id, column, n),
                payload,
            )?;
        }
        Ok(())
    }

    /// Maps tile `id`'s shards into a [`TileData`].
    pub fn map_tile(&self, id: TileId) -> Result<TileData, TiledError> {
        TileData::open(&self.tile_dir(id), id)
    }

    /// Reads tile `id` fully into a [`PointCloud`] (through the mapped
    /// shards, then decoded).
    pub fn read_tile(&self, id: TileId) -> Result<PointCloud, TiledError> {
        Ok(self.map_tile(id)?.to_cloud())
    }

    /// Rewrites tile `id`'s rgb column shard with `colors` (the
    /// streaming attack's write-back path).
    pub fn write_colors(&self, id: TileId, colors: &[[f32; 3]]) -> Result<(), TiledError> {
        let mut rgb = Vec::with_capacity(colors.len() * 12);
        for c in colors {
            for ch in c {
                rgb.extend_from_slice(&ch.to_le_bytes());
            }
        }
        shard::write_shard(
            &self.tile_dir(id).join(Column::Rgb.file_name()),
            &self.header_for(id, Column::Rgb, colors.len()),
            &rgb,
        )?;
        Ok(())
    }

    fn write_meta(&self) -> Result<(), TiledError> {
        let c = &self.cfg;
        let mut m = Vec::with_capacity(META_LEN);
        m.extend_from_slice(&META_MAGIC);
        m.extend_from_slice(&META_VERSION.to_le_bytes());
        m.extend_from_slice(&c.tiles_x.to_le_bytes());
        m.extend_from_slice(&c.tiles_y.to_le_bytes());
        m.extend_from_slice(&(c.points_per_tile as u64).to_le_bytes());
        m.extend_from_slice(&c.tile_extent.to_le_bytes());
        m.extend_from_slice(&c.world_seed.to_le_bytes());
        m.extend_from_slice(&(OUTDOOR_CLASS_COUNT as u16).to_le_bytes());
        m.extend_from_slice(&c.density.to_le_bytes());
        m.extend_from_slice(&c.lighting_jitter.to_le_bytes());
        m.push(c.ensure_car as u8);
        debug_assert_eq!(m.len(), META_LEN);
        let mut file = File::create(self.dir.join(META_FILE))?;
        file.write_all(&m)?;
        Ok(())
    }
}

fn decode_meta(path: &Path, bytes: &[u8]) -> Result<TiledWorldConfig, TiledError> {
    if bytes.len() != META_LEN {
        return Err(ShardError::Truncated {
            path: path.to_path_buf(),
            expected: META_LEN as u64,
            actual: bytes.len() as u64,
        }
        .into());
    }
    if bytes[0..4] != META_MAGIC {
        return Err(ShardError::BadMagic { path: path.to_path_buf() }.into());
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != META_VERSION {
        return Err(ShardError::BadVersion { path: path.to_path_buf(), found: version }.into());
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let f32_at = |o: usize| f32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let cfg = TiledWorldConfig {
        tiles_x: u32_at(6),
        tiles_y: u32_at(10),
        points_per_tile: u64_at(14) as usize,
        tile_extent: f32_at(22),
        world_seed: u64_at(26),
        density: f32_at(36),
        lighting_jitter: f32_at(40),
        ensure_car: bytes[44] != 0,
    };
    cfg.validate()?;
    Ok(cfg)
}

/// Zero-copy accessors over one tile's five mapped column shards.
pub struct TileData {
    x: ShardMap,
    y: ShardMap,
    z: ShardMap,
    rgb: ShardMap,
    label: ShardMap,
    len: usize,
}

impl fmt::Debug for TileData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileData")
            .field("len", &self.len)
            .field("bytes", &self.byte_len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl TileData {
    /// Maps and validates all five shards of the tile at `dir`.
    pub fn open(dir: &Path, id: TileId) -> Result<TileData, TiledError> {
        let mut maps = Vec::with_capacity(5);
        let mut count: Option<u64> = None;
        for column in Column::ALL {
            let path = dir.join(column.file_name());
            let map = ShardMap::open(&path).map_err(ShardError::Io)?;
            let header = ShardHeader::decode(&path, map.bytes(), map.len() as u64)?;
            if header.column != column {
                return Err(ShardError::WrongColumn {
                    path,
                    expected: column,
                    found: header.column,
                }
                .into());
            }
            if header.tile_x != id.x || header.tile_y != id.y {
                return Err(ShardError::CorruptHeader {
                    path,
                    reason: format!(
                        "tile coords ({}, {}) do not match directory ({}, {})",
                        header.tile_x, header.tile_y, id.x, id.y
                    ),
                }
                .into());
            }
            match count {
                None => count = Some(header.record_count),
                Some(c) if c != header.record_count => {
                    return Err(ShardError::CorruptHeader {
                        path,
                        reason: format!(
                            "record count {} disagrees with sibling columns ({c})",
                            header.record_count
                        ),
                    }
                    .into());
                }
                Some(_) => {}
            }
            maps.push(map);
        }
        let len = count.unwrap_or(0) as usize;
        let mut it = maps.into_iter();
        Ok(TileData {
            x: it.next().expect("x map"),
            y: it.next().expect("y map"),
            z: it.next().expect("z map"),
            rgb: it.next().expect("rgb map"),
            label: it.next().expect("label map"),
            len,
        })
    }

    /// Total mapped bytes across the five shards (the residency unit).
    pub fn byte_len(&self) -> usize {
        self.x.len() + self.y.len() + self.z.len() + self.rgb.len() + self.label.len()
    }

    /// Whether the coordinate shards are kernel mappings (vs heap reads).
    pub fn is_mapped(&self) -> bool {
        self.x.is_mapped()
    }

    fn f32_at(map: &ShardMap, offset: usize) -> f32 {
        let b = &map.bytes()[HEADER_LEN + offset..HEADER_LEN + offset + 4];
        f32::from_le_bytes(b.try_into().expect("4 bytes"))
    }

    /// Decodes the whole tile into a [`PointCloud`].
    pub fn to_cloud(&self) -> PointCloud {
        let coords: Vec<Point3> = (0..self.len).map(|i| self.point(i)).collect();
        let colors: Vec<[f32; 3]> = (0..self.len).map(|i| self.color(i)).collect();
        let labels: Vec<usize> = (0..self.len).map(|i| self.label(i)).collect();
        PointCloud::new(coords, colors, labels, OUTDOOR_CLASS_COUNT)
    }
}

/// Random access to one tile's points, independent of backing storage.
pub trait TileAccess: Send + Sync {
    /// Points in the tile.
    fn len(&self) -> usize;
    /// Whether the tile is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// World-space coordinates of point `i`.
    fn point(&self, i: usize) -> Point3;
    /// Color of point `i`.
    fn color(&self, i: usize) -> [f32; 3];
    /// Label of point `i`.
    fn label(&self, i: usize) -> usize;
}

impl TileAccess for TileData {
    fn len(&self) -> usize {
        self.len
    }

    fn point(&self, i: usize) -> Point3 {
        debug_assert!(i < self.len);
        Point3::new(
            Self::f32_at(&self.x, i * 4),
            Self::f32_at(&self.y, i * 4),
            Self::f32_at(&self.z, i * 4),
        )
    }

    fn color(&self, i: usize) -> [f32; 3] {
        debug_assert!(i < self.len);
        [
            Self::f32_at(&self.rgb, i * 12),
            Self::f32_at(&self.rgb, i * 12 + 4),
            Self::f32_at(&self.rgb, i * 12 + 8),
        ]
    }

    fn label(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.label.bytes()[HEADER_LEN + i] as usize
    }
}

/// Storage backend the streaming attack drives: a grid of tiles with
/// snapshot reads and whole-column color write-back.
///
/// Loads hand out [`Arc`] snapshots so window workers can read a tile
/// concurrently; write-back takes `&mut self` and happens between tiles
/// on the driving thread, which is what makes the streaming result
/// independent of the worker schedule.
pub trait TileStore {
    /// Tiles along x.
    fn tiles_x(&self) -> u32;
    /// Tiles along y.
    fn tiles_y(&self) -> u32;
    /// Tile side length in meters.
    fn tile_extent(&self) -> f32;
    /// Label space size.
    fn num_classes(&self) -> usize;
    /// World-space origin (min corner) of tile `id`.
    fn tile_origin(&self, id: TileId) -> (f32, f32) {
        (id.x as f32 * self.tile_extent(), id.y as f32 * self.tile_extent())
    }
    /// All tile ids in row-major order.
    fn tile_ids(&self) -> Vec<TileId> {
        let mut ids = Vec::with_capacity((self.tiles_x() * self.tiles_y()) as usize);
        for y in 0..self.tiles_y() {
            for x in 0..self.tiles_x() {
                ids.push(TileId { x, y });
            }
        }
        ids
    }
    /// Checks out a read snapshot of tile `id`.
    fn load(&self, id: TileId) -> Result<Arc<dyn TileAccess>, TiledError>;
    /// Replaces tile `id`'s color column.
    fn write_colors(&mut self, id: TileId, colors: &[[f32; 3]]) -> Result<(), TiledError>;
    /// Residency occupancy/traffic counters.
    fn resident_stats(&self) -> ResidencyStats;
}

/// Shard-backed store: a [`TiledWorld`] behind a [`ResidencyCache`].
pub struct ShardStore {
    world: TiledWorld,
    cache: ResidencyCache,
}

impl ShardStore {
    /// Wraps `world` with a hard residency budget in bytes.
    pub fn new(world: TiledWorld, budget_bytes: usize) -> ShardStore {
        ShardStore { world, cache: ResidencyCache::new(budget_bytes) }
    }

    /// The underlying world.
    pub fn world(&self) -> &TiledWorld {
        &self.world
    }
}

impl TileStore for ShardStore {
    fn tiles_x(&self) -> u32 {
        self.world.cfg.tiles_x
    }

    fn tiles_y(&self) -> u32 {
        self.world.cfg.tiles_y
    }

    fn tile_extent(&self) -> f32 {
        self.world.cfg.tile_extent
    }

    fn num_classes(&self) -> usize {
        OUTDOOR_CLASS_COUNT
    }

    fn load(&self, id: TileId) -> Result<Arc<dyn TileAccess>, TiledError> {
        let data = self.cache.get_or_load(id, || self.world.map_tile(id))?;
        Ok(data as Arc<dyn TileAccess>)
    }

    fn write_colors(&mut self, id: TileId, colors: &[[f32; 3]]) -> Result<(), TiledError> {
        self.world.write_colors(id, colors)?;
        self.cache.invalidate(id);
        Ok(())
    }

    fn resident_stats(&self) -> ResidencyStats {
        self.cache.stats()
    }
}

/// Fully-resident tile.
struct MemTile {
    coords: Vec<Point3>,
    colors: Vec<[f32; 3]>,
    labels: Vec<usize>,
}

impl TileAccess for MemTile {
    fn len(&self) -> usize {
        self.coords.len()
    }

    fn point(&self, i: usize) -> Point3 {
        self.coords[i]
    }

    fn color(&self, i: usize) -> [f32; 3] {
        self.colors[i]
    }

    fn label(&self, i: usize) -> usize {
        self.labels[i]
    }
}

/// In-core store: the whole world resident as plain vectors. The
/// reference backend for streaming ≡ in-core equivalence tests.
pub struct MemStore {
    cfg: TiledWorldConfig,
    tiles: Vec<Arc<MemTile>>,
    bytes: usize,
}

impl MemStore {
    /// Generates every tile of `cfg` in memory, bit-identical to the
    /// clouds a [`TiledWorld::create`] of the same config shards out.
    pub fn generate(cfg: &TiledWorldConfig) -> MemStore {
        // Reuse the exact TiledWorld generation path without a directory.
        let world = TiledWorld { dir: PathBuf::new(), cfg: cfg.clone() };
        let ids = world.tile_ids();
        let runtime = colper_runtime::current();
        let tiles: Vec<Arc<MemTile>> = runtime.par_map_grained(ids.len(), 1, |i| {
            let cloud = world.generate_tile(ids[i]);
            Arc::new(MemTile { coords: cloud.coords, colors: cloud.colors, labels: cloud.labels })
        });
        let bytes = tiles
            .iter()
            .map(|t| t.len() * (std::mem::size_of::<Point3>() + 12 + std::mem::size_of::<usize>()))
            .sum();
        MemStore { cfg: cfg.clone(), tiles, bytes }
    }

    fn index(&self, id: TileId) -> usize {
        (id.y * self.cfg.tiles_x + id.x) as usize
    }

    /// The final colors of tile `id` (test hook).
    pub fn colors_of(&self, id: TileId) -> Vec<[f32; 3]> {
        self.tiles[self.index(id)].colors.clone()
    }
}

impl TileStore for MemStore {
    fn tiles_x(&self) -> u32 {
        self.cfg.tiles_x
    }

    fn tiles_y(&self) -> u32 {
        self.cfg.tiles_y
    }

    fn tile_extent(&self) -> f32 {
        self.cfg.tile_extent
    }

    fn num_classes(&self) -> usize {
        OUTDOOR_CLASS_COUNT
    }

    fn load(&self, id: TileId) -> Result<Arc<dyn TileAccess>, TiledError> {
        let i = self.index(id);
        Ok(Arc::clone(&self.tiles[i]) as Arc<dyn TileAccess>)
    }

    fn write_colors(&mut self, id: TileId, colors: &[[f32; 3]]) -> Result<(), TiledError> {
        let i = self.index(id);
        let old = &self.tiles[i];
        self.tiles[i] = Arc::new(MemTile {
            coords: old.coords.clone(),
            colors: colors.to_vec(),
            labels: old.labels.clone(),
        });
        Ok(())
    }

    fn resident_stats(&self) -> ResidencyStats {
        // Everything is resident, always: report the world size as both
        // the budget and the peak.
        ResidencyStats {
            budget_bytes: self.bytes,
            current_bytes: self.bytes,
            peak_bytes: self.bytes,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("colper-tiled-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg() -> TiledWorldConfig {
        TiledWorldConfig {
            tiles_x: 2,
            tiles_y: 2,
            points_per_tile: 256,
            tile_extent: 20.0,
            world_seed: 7,
            ..TiledWorldConfig::default()
        }
    }

    #[test]
    fn write_read_round_trip_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        let world = TiledWorld::create(&dir, &small_cfg()).unwrap();
        for id in world.tile_ids() {
            let generated = world.generate_tile(id);
            let read = world.read_tile(id).unwrap();
            assert_eq!(generated.coords, read.coords, "tile {id:?} coords");
            assert_eq!(generated.colors, read.colors, "tile {id:?} colors");
            assert_eq!(generated.labels, read.labels, "tile {id:?} labels");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_recovers_config_and_regenerates_identically() {
        let dir = temp_dir("reopen");
        let cfg = small_cfg();
        {
            TiledWorld::create(&dir, &cfg).unwrap();
        }
        let world = TiledWorld::open(&dir).unwrap();
        assert_eq!(world.config().tiles_x, cfg.tiles_x);
        assert_eq!(world.config().world_seed, cfg.world_seed);
        assert_eq!(world.config().points_per_tile, cfg.points_per_tile);
        let id = TileId { x: 1, y: 0 };
        // Regenerate-from-seed must equal read-from-shard.
        assert_eq!(world.generate_tile(id), world.read_tile(id).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tile_seeds_are_distinct_and_tiles_differ() {
        let dir = temp_dir("seeds");
        let world = TiledWorld::create(&dir, &small_cfg()).unwrap();
        let a = TileId { x: 0, y: 0 };
        let b = TileId { x: 1, y: 0 };
        assert_ne!(world.tile_seed(a), world.tile_seed(b));
        assert_ne!(world.read_tile(a).unwrap().colors, world.read_tile(b).unwrap().colors);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_rejected_with_typed_error() {
        let dir = temp_dir("truncate");
        let world = TiledWorld::create(&dir, &small_cfg()).unwrap();
        let id = TileId { x: 0, y: 0 };
        let path = world.tile_dir(id).join(Column::Rgb.file_name());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        match world.map_tile(id) {
            Err(TiledError::Shard(ShardError::Truncated { .. })) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_magic_rejected_with_typed_error() {
        let dir = temp_dir("magic");
        let world = TiledWorld::create(&dir, &small_cfg()).unwrap();
        let id = TileId { x: 0, y: 1 };
        let path = world.tile_dir(id).join(Column::X.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1] = b'?';
        std::fs::write(&path, &bytes).unwrap();
        match world.map_tile(id) {
            Err(TiledError::Shard(ShardError::BadMagic { .. })) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swapped_column_rejected_with_typed_error() {
        let dir = temp_dir("swap");
        let world = TiledWorld::create(&dir, &small_cfg()).unwrap();
        let id = TileId { x: 1, y: 1 };
        let tdir = world.tile_dir(id);
        // Serve the y column under the x file name.
        std::fs::copy(tdir.join(Column::Y.file_name()), tdir.join(Column::X.file_name())).unwrap();
        match world.map_tile(id) {
            Err(TiledError::Shard(ShardError::WrongColumn { expected, found, .. })) => {
                assert_eq!(expected, Column::X);
                assert_eq!(found, Column::Y);
            }
            other => panic!("expected WrongColumn, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn color_write_back_round_trips() {
        let dir = temp_dir("writeback");
        let world = TiledWorld::create(&dir, &small_cfg()).unwrap();
        let id = TileId { x: 0, y: 0 };
        let before = world.read_tile(id).unwrap();
        let mut colors = before.colors.clone();
        for c in &mut colors {
            c[0] = (c[0] * 0.5).clamp(0.0, 1.0);
        }
        world.write_colors(id, &colors).unwrap();
        let after = world.read_tile(id).unwrap();
        assert_eq!(after.colors, colors);
        assert_eq!(after.coords, before.coords);
        assert_eq!(after.labels, before.labels);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn residency_budget_enforced_with_lru_eviction() {
        let dir = temp_dir("residency");
        let cfg = small_cfg();
        let world = TiledWorld::create(&dir, &cfg).unwrap();
        let tile_bytes = world.map_tile(TileId { x: 0, y: 0 }).unwrap().byte_len();
        // Room for exactly two tiles.
        let store = ShardStore::new(world, 2 * tile_bytes);
        let ids = store.world().tile_ids();
        for &id in &ids {
            let view = store.load(id).unwrap();
            assert!(!view.is_empty());
            drop(view);
            let stats = store.resident_stats();
            assert!(
                stats.peak_bytes <= 2 * tile_bytes,
                "peak {} exceeds budget {}",
                stats.peak_bytes,
                2 * tile_bytes
            );
        }
        let stats = store.resident_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        // Re-touch the most recent tile: a hit, no new load.
        store.load(ids[3]).unwrap();
        assert_eq!(store.resident_stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_smaller_than_one_tile_is_a_typed_error() {
        let dir = temp_dir("budget");
        let world = TiledWorld::create(&dir, &small_cfg()).unwrap();
        let store = ShardStore::new(world, 64);
        match store.load(TileId { x: 0, y: 0 }) {
            Err(TiledError::BudgetExceeded { budget: 64, .. }) => {}
            other => panic!("expected BudgetExceeded, got {:?}", other.map(|v| v.len())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_matches_shard_store_content() {
        let dir = temp_dir("memmatch");
        let cfg = small_cfg();
        let world = TiledWorld::create(&dir, &cfg).unwrap();
        let mem = MemStore::generate(&cfg);
        let shard = ShardStore::new(world, usize::MAX);
        for id in mem.tile_ids() {
            let m = mem.load(id).unwrap();
            let s = shard.load(id).unwrap();
            assert_eq!(m.len(), s.len());
            for i in 0..m.len() {
                assert_eq!(m.point(i), s.point(i), "tile {id:?} point {i}");
                assert_eq!(m.color(i), s.color(i), "tile {id:?} color {i}");
                assert_eq!(m.label(i), s.label(i), "tile {id:?} label {i}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
