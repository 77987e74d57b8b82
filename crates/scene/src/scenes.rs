//! The sixteen evaluation scenes.
//!
//! The paper evaluates on sixteen LumiBench scenes built by Embree. Those
//! assets are not redistributable, so this module provides *procedural
//! stand-ins* with the same names, chosen so that the relative BVH scale
//! ordering of the paper's Table 2 is preserved (WKND tiny and
//! cache-resident, CAR/ROBOT by far the largest, etc.) and so that each
//! scene exercises a distinct spatial structure (terrain, dense shell,
//! scattered incoherent confetti, architectural interior, ...).
//!
//! Scenes are fully deterministic: the same [`SceneId`] and detail level
//! always produce the same triangles.

use crate::generators::{
    cone, confetti, cuboid, cylinder, displaced_sphere, ground_plane, helix_tube, ripple, terrain,
    uv_sphere,
};
use crate::{Camera, Mesh, SceneError};
use rt_geometry::{Aabb, Vec3};
use rt_rng::SmallRng;
use std::fmt;

/// Identifier of one of the sixteen evaluation scenes (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum SceneId {
    Wknd,
    Park,
    Car,
    Robot,
    Sprng,
    Party,
    Fox,
    Frst,
    Lands,
    Bunny,
    Crnvl,
    Ship,
    Spnza,
    Bath,
    Ref,
    Chsnt,
}

/// BVH statistics the paper reports for a scene in Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSceneStats {
    /// BVH tree size in megabytes (Embree build).
    pub tree_size_mb: f64,
    /// BVH tree depth.
    pub tree_depth: u32,
    /// Number of 512-byte treelets.
    pub total_treelets: u64,
}

impl SceneId {
    /// All sixteen scenes in the paper's Table 2 order.
    pub const ALL: [SceneId; 16] = [
        SceneId::Wknd,
        SceneId::Park,
        SceneId::Car,
        SceneId::Robot,
        SceneId::Sprng,
        SceneId::Party,
        SceneId::Fox,
        SceneId::Frst,
        SceneId::Lands,
        SceneId::Bunny,
        SceneId::Crnvl,
        SceneId::Ship,
        SceneId::Spnza,
        SceneId::Bath,
        SceneId::Ref,
        SceneId::Chsnt,
    ];

    /// The scene's short name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            SceneId::Wknd => "WKND",
            SceneId::Park => "PARK",
            SceneId::Car => "CAR",
            SceneId::Robot => "ROBOT",
            SceneId::Sprng => "SPRNG",
            SceneId::Party => "PARTY",
            SceneId::Fox => "FOX",
            SceneId::Frst => "FRST",
            SceneId::Lands => "LANDS",
            SceneId::Bunny => "BUNNY",
            SceneId::Crnvl => "CRNVL",
            SceneId::Ship => "SHIP",
            SceneId::Spnza => "SPNZA",
            SceneId::Bath => "BATH",
            SceneId::Ref => "REF",
            SceneId::Chsnt => "CHSNT",
        }
    }

    /// Parses a scene name as printed in the paper (case-insensitive).
    pub fn from_name(name: &str) -> Option<SceneId> {
        let upper = name.to_ascii_uppercase();
        SceneId::ALL.into_iter().find(|s| s.name() == upper)
    }

    /// The statistics the paper's Table 2 reports for this scene
    /// (Embree-built BVH, 512 B maximum treelet size).
    pub fn paper_stats(self) -> PaperSceneStats {
        let (tree_size_mb, tree_depth, total_treelets) = match self {
            SceneId::Wknd => (0.2, 7, 519),
            SceneId::Park => (501.9, 14, 3_946_335),
            SceneId::Car => (1_233.6, 16, 10_186_555),
            SceneId::Robot => (1_721.3, 18, 13_532_923),
            SceneId::Sprng => (164.3, 14, 1_286_479),
            SceneId::Party => (143.8, 14, 1_137_508),
            SceneId::Fox => (597.8, 15, 4_638_757),
            SceneId::Frst => (348.6, 14, 2_764_433),
            SceneId::Lands => (279.2, 12, 2_293_559),
            SceneId::Bunny => (12.2, 11, 71_424),
            SceneId::Crnvl => (37.3, 16, 299_373),
            SceneId::Ship => (0.5, 12, 4_323),
            SceneId::Spnza => (22.0, 16, 176_804),
            SceneId::Bath => (104.2, 16, 821_975),
            SceneId::Ref => (37.1, 13, 305_404),
            SceneId::Chsnt => (25.5, 12, 204_634),
        };
        PaperSceneStats {
            tree_size_mb,
            tree_depth,
            total_treelets,
        }
    }
}

impl fmt::Display for SceneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A generated scene: its triangles plus a camera framing them.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Which of the sixteen scenes this is.
    pub id: SceneId,
    /// The scene geometry.
    pub mesh: Mesh,
    /// A camera framing the geometry, used for primary-ray workloads.
    pub camera: Camera,
}

impl Scene {
    /// Builds the scene at full evaluation detail (`detail = 1.0`).
    pub fn build(id: SceneId) -> Scene {
        Scene::build_with_detail(id, 1.0)
    }

    /// Builds the scene with a linear detail multiplier.
    ///
    /// Triangle counts scale roughly with `detail²`; tests use small values
    /// (e.g. `0.2`) for fast miniature scenes with the same structure.
    ///
    /// # Panics
    ///
    /// Panics if `detail` is not finite and positive, or if the scene
    /// would exceed the generator triangle ceiling; use
    /// [`Scene::try_build_with_detail`] for a typed error instead.
    pub fn build_with_detail(id: SceneId, detail: f32) -> Scene {
        match Scene::try_build_with_detail(id, detail) {
            Ok(scene) => scene,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the scene with a linear detail multiplier, returning a
    /// typed [`SceneError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SceneError::InvalidDetail`] when `detail` is zero, negative,
    /// NaN, or infinite; [`SceneError::TooManyTriangles`] when the
    /// scaled scene would exceed
    /// [`MAX_GENERATOR_TRIANGLES`](crate::generators::MAX_GENERATOR_TRIANGLES)
    /// triangles in a single generator call (the fail-fast guard
    /// against runaway detail factors).
    pub fn try_build_with_detail(id: SceneId, detail: f32) -> Result<Scene, SceneError> {
        if !(detail.is_finite() && detail > 0.0) {
            return Err(SceneError::InvalidDetail { detail });
        }
        let mesh = build_mesh(id, detail)?;
        let camera = framing_camera(&mesh.aabb());
        Ok(Scene { id, mesh, camera })
    }

    /// Number of triangles in the scene.
    pub fn triangle_count(&self) -> usize {
        self.mesh.len()
    }
}

/// Places a camera on a diagonal looking at the scene center, at the
/// distance where the bounding box slightly overfills the viewport (so
/// that most primary rays do real traversal work, as in the paper's
/// scenes). Deterministic for a given AABB.
fn framing_camera(aabb: &Aabb) -> Camera {
    let center = aabb.center();
    let extent = aabb.extent();
    // Flat scenes (terrains) are viewed from higher up so the ground
    // fills the frame; tall/compact scenes from a shallower diagonal.
    let dir = if extent.y < 0.25 * extent.x.max(extent.z) {
        // Near-top-down: the ground plane fills the square viewport.
        Vec3::new(0.22, 0.92, 0.28).normalized()
    } else {
        Vec3::new(0.55, 0.4, 0.73).normalized()
    };
    let vfov = 50.0_f32.to_radians();
    let tan_h = (vfov * 0.5).tan();
    // Fit distance: smallest t such that every AABB corner projects
    // inside the square frustum of a camera at `center + dir * t`.
    let w = dir;
    let u = Vec3::Y.cross(w).normalized();
    let v = w.cross(u);
    let mut t_fit = 1.0f32;
    let mut t_front = 1.0f32;
    for ix in [aabb.min.x, aabb.max.x] {
        for iy in [aabb.min.y, aabb.max.y] {
            for iz in [aabb.min.z, aabb.max.z] {
                let q = Vec3::new(ix, iy, iz) - center;
                let along = q.dot(w);
                t_fit = t_fit.max(along + q.dot(u).abs() / tan_h);
                t_fit = t_fit.max(along + q.dot(v).abs() / tan_h);
                t_front = t_front.max(along);
            }
        }
    }
    // 0.55 = strong overfill (most pixels cover geometry); never closer
    // than just outside the geometry.
    let t = (t_fit * 0.55).max(t_front * 1.1);
    Camera::look_at(center + dir * t, center, Vec3::Y, vfov, 1.0)
}

/// Scales a linear resolution by the detail factor (minimum `lo`).
fn res(base: u32, detail: f32, lo: u32) -> u32 {
    ((base as f32 * detail).round() as u32).max(lo)
}

/// Scales an instance count by `detail²` (counts are area-like).
fn count(base: usize, detail: f32, lo: usize) -> usize {
    ((base as f32 * detail * detail).round() as usize).max(lo)
}

fn build_mesh(id: SceneId, d: f32) -> Result<Mesh, SceneError> {
    match id {
        SceneId::Wknd => wknd(d),
        SceneId::Park => park(d),
        SceneId::Car => car(d),
        SceneId::Robot => robot(d),
        SceneId::Sprng => sprng(d),
        SceneId::Party => party(d),
        SceneId::Fox => fox(d),
        SceneId::Frst => frst(d),
        SceneId::Lands => lands(d),
        SceneId::Bunny => bunny(d),
        SceneId::Crnvl => crnvl(d),
        SceneId::Ship => ship(d),
        SceneId::Spnza => spnza(d),
        SceneId::Bath => bath(d),
        SceneId::Ref => rf(d),
        SceneId::Chsnt => chsnt(d),
    }
}

/// Tiny "one weekend" scene: three spheres on a plane. Its BVH fits in the
/// L1 cache, which is why the paper sees no speedup on it.
fn wknd(d: f32) -> Result<Mesh, SceneError> {
    let mut m = ground_plane(12.0, 0.0, res(8, d, 2))?;
    for (i, r) in [1.0f32, 0.8, 1.2].iter().enumerate() {
        let x = -4.0 + 4.0 * i as f32;
        m.append(&uv_sphere(
            Vec3::new(x, *r, 0.0),
            *r,
            res(12, d, 4),
            res(16, d, 6),
        )?);
    }
    Ok(m)
}

/// Park: rolling terrain with scattered trees and rocks.
fn park(d: f32) -> Result<Mesh, SceneError> {
    let mut rng = SmallRng::seed_from_u64(0x5041_524b);
    let mut m = terrain(80.0, res(100, d, 8), |x, z| {
        2.0 * (0.05 * x).sin() * (0.06 * z).cos()
    })?;
    type Place<'a> = &'a mut (dyn FnMut(&mut SmallRng, Vec3) -> Result<Mesh, SceneError> + 'a);
    let mut place = |n: usize, f: Place<'_>| -> Result<(), SceneError> {
        use rt_rng::Rng;
        for _ in 0..n {
            let x = rng.gen_range(-75.0..75.0);
            let z = rng.gen_range(-75.0..75.0);
            let y = 2.0 * (0.05f32 * x).sin() * (0.06f32 * z).cos();
            let sub = f(&mut rng, Vec3::new(x, y, z))?;
            m.append(&sub);
        }
        Ok(())
    };
    place(count(400, d, 4), &mut |rng, p| {
        use rt_rng::Rng;
        let h: f32 = rng.gen_range(3.0..7.0);
        let mut t = cylinder(p, 0.3, h * 0.4, res(10, d, 4))?;
        t.append(&cone(
            p + Vec3::new(0.0, h * 0.4, 0.0),
            h * 0.35,
            h * 0.6,
            res(20, d, 5),
        )?);
        Ok(t)
    })?;
    place(count(120, d, 2), &mut |rng, p| {
        use rt_rng::Rng;
        let r: f32 = rng.gen_range(0.3..0.9);
        uv_sphere(
            p + Vec3::new(0.0, r * 0.5, 0.0),
            r,
            res(8, d, 3),
            res(10, d, 4),
        )
    })?;
    Ok(m)
}

/// Car: one very dense triangle shell (body) with wheels — the largest
/// scenes in the paper are dense scanned/CAD surfaces like this.
fn car(d: f32) -> Result<Mesh, SceneError> {
    let body = displaced_sphere(Vec3::ZERO, 1.0, res(180, d, 12), res(280, d, 16), |t, p| {
        0.04 * ripple(t, p, 3, 1.0)
    })?
    .scaled(Vec3::new(4.2, 1.25, 1.8));
    let mut m = body;
    for (sx, sz) in [(-1.0f32, -1.0f32), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)] {
        let wheel = uv_sphere(Vec3::ZERO, 0.6, res(24, d, 6), res(36, d, 8))?
            .scaled(Vec3::new(1.0, 1.0, 0.45))
            .translated(Vec3::new(2.4 * sx, -1.0, 1.8 * sz));
        m.append(&wheel);
    }
    m.append(&cuboid(
        Vec3::new(-1.6, -0.4, -1.0),
        Vec3::new(1.6, 0.6, 1.0),
    ));
    Ok(m)
}

/// Robot: articulated figure built from many dense organic segments — the
/// deepest, largest BVH of the suite.
fn robot(d: f32) -> Result<Mesh, SceneError> {
    let blob = |c: Vec3, r: Vec3, st: u32, sl: u32| -> Result<Mesh, SceneError> {
        Ok(
            displaced_sphere(Vec3::ZERO, 1.0, res(st, d, 8), res(sl, d, 10), |t, p| {
                0.05 * ripple(t, p, 2, 1.0)
            })?
            .scaled(r)
            .translated(c),
        )
    };
    let mut m = blob(Vec3::new(0.0, 3.0, 0.0), Vec3::new(1.4, 2.0, 0.9), 120, 180)?; // torso
    m.append(&blob(Vec3::new(0.0, 6.0, 0.0), Vec3::splat(0.9), 70, 100)?); // head
    for side in [-1.0f32, 1.0] {
        // Arms: two segments each.
        m.append(&blob(
            Vec3::new(1.9 * side, 4.2, 0.0),
            Vec3::new(0.45, 1.1, 0.45),
            50,
            70,
        )?);
        m.append(&blob(
            Vec3::new(2.1 * side, 2.2, 0.3),
            Vec3::new(0.4, 1.0, 0.4),
            50,
            70,
        )?);
        // Legs: two segments each.
        m.append(&blob(
            Vec3::new(0.7 * side, 0.2, 0.0),
            Vec3::new(0.5, 1.2, 0.5),
            50,
            70,
        )?);
        m.append(&blob(
            Vec3::new(0.7 * side, -2.0, 0.2),
            Vec3::new(0.45, 1.1, 0.5),
            50,
            70,
        )?);
    }
    Ok(m)
}

/// Springs: two interleaved helical coils.
fn sprng(d: f32) -> Result<Mesh, SceneError> {
    let mut m = helix_tube(
        Vec3::ZERO,
        2.0,
        0.25,
        9.0,
        8.0,
        res(600, d, 24),
        res(16, d, 5),
    )?;
    m.append(&helix_tube(
        Vec3::new(5.0, 0.0, 0.0),
        1.4,
        0.2,
        12.0,
        8.0,
        res(500, d, 20),
        res(14, d, 5),
    )?);
    m.append(&ground_plane(10.0, -0.2, res(10, d, 2))?);
    Ok(m)
}

/// Party: uniformly scattered confetti — maximal ray divergence. The paper
/// notes PARTY is the scene where treelet traversal costs the most.
fn party(d: f32) -> Result<Mesh, SceneError> {
    let mut rng = SmallRng::seed_from_u64(0x5041_5254);
    confetti(
        &mut rng,
        count(36_000, d, 64),
        Vec3::new(-10.0, 0.0, -10.0),
        Vec3::new(10.0, 10.0, 10.0),
        0.35,
    )
}

/// Fox: organic body + head + tail, dense smooth surfaces.
fn fox(d: f32) -> Result<Mesh, SceneError> {
    let organic = |c: Vec3, r: Vec3, st: u32, sl: u32, seed: f32| -> Result<Mesh, SceneError> {
        Ok(displaced_sphere(
            Vec3::ZERO,
            1.0,
            res(st, d, 8),
            res(sl, d, 10),
            move |t, p| 0.08 * ripple(t + seed, p, 3, 1.0),
        )?
        .scaled(r)
        .translated(c))
    };
    let mut m = organic(
        Vec3::new(0.0, 1.2, 0.0),
        Vec3::new(2.2, 1.1, 1.0),
        140,
        200,
        0.0,
    )?;
    m.append(&organic(
        Vec3::new(2.6, 1.9, 0.0),
        Vec3::splat(0.7),
        60,
        90,
        1.3,
    )?);
    m.append(&helix_tube(
        Vec3::new(-2.2, 1.0, 0.0),
        0.5,
        0.25,
        1.5,
        1.5,
        res(300, d, 12),
        res(10, d, 4),
    )?);
    for side in [-1.0f32, 1.0] {
        m.append(&cone(
            Vec3::new(2.7, 2.4, 0.35 * side),
            0.2,
            0.6,
            res(10, d, 4),
        )?);
        m.append(&cylinder(
            Vec3::new(1.2, 0.0, 0.5 * side),
            0.18,
            1.2,
            res(10, d, 4),
        )?);
        m.append(&cylinder(
            Vec3::new(-1.2, 0.0, 0.5 * side),
            0.18,
            1.2,
            res(10, d, 4),
        )?);
    }
    Ok(m)
}

/// Forest: terrain densely covered with two-tier conifer trees.
fn frst(d: f32) -> Result<Mesh, SceneError> {
    let mut rng = SmallRng::seed_from_u64(0x4652_5354);
    let mut m = terrain(60.0, res(60, d, 6), |x, z| {
        1.5 * (0.08 * x).cos() * (0.07 * z).sin()
    })?;
    use rt_rng::Rng;
    for _ in 0..count(600, d, 6) {
        let x = rng.gen_range(-56.0..56.0);
        let z = rng.gen_range(-56.0..56.0);
        let y = 1.5 * (0.08f32 * x).cos() * (0.07f32 * z).sin();
        let h: f32 = rng.gen_range(3.0..6.5);
        let p = Vec3::new(x, y, z);
        m.append(&cylinder(p, 0.25, h * 0.3, res(8, d, 3))?);
        m.append(&cone(
            p + Vec3::new(0.0, h * 0.3, 0.0),
            h * 0.3,
            h * 0.45,
            res(16, d, 5),
        )?);
        m.append(&cone(
            p + Vec3::new(0.0, h * 0.55, 0.0),
            h * 0.22,
            h * 0.45,
            res(12, d, 4),
        )?);
    }
    Ok(m)
}

/// Landscape: one large high-resolution heightfield.
fn lands(d: f32) -> Result<Mesh, SceneError> {
    terrain(100.0, res(150, d, 10), |x, z| {
        6.0 * (0.03 * x).sin() * (0.04 * z).cos()
            + 2.0 * (0.11 * x + 1.0).cos() * (0.09 * z).sin()
            + 0.5 * (0.31 * x).sin() * (0.37 * z).cos()
    })
}

/// Bunny: a single medium-resolution organic blob.
fn bunny(d: f32) -> Result<Mesh, SceneError> {
    let mut m = displaced_sphere(
        Vec3::new(0.0, 1.0, 0.0),
        1.0,
        res(64, d, 8),
        res(82, d, 10),
        |t, p| 0.12 * ripple(t, p, 4, 1.0),
    )?;
    for side in [-1.0f32, 1.0] {
        m.append(
            &uv_sphere(Vec3::ZERO, 0.45, res(16, d, 5), res(20, d, 6))?
                .scaled(Vec3::new(0.35, 1.0, 0.2))
                .translated(Vec3::new(0.35 * side, 2.2, 0.0)),
        );
    }
    Ok(m)
}

/// Carnival: a mixture of structured rides, tents, and booths.
fn crnvl(d: f32) -> Result<Mesh, SceneError> {
    let mut rng = SmallRng::seed_from_u64(0x4352_4e56);
    use rt_rng::Rng;
    let mut m = ground_plane(40.0, 0.0, res(30, d, 4))?;
    // Ferris wheel: a ring of cabins plus a rim tube.
    let wheel_center = Vec3::new(0.0, 11.0, -15.0);
    m.append(&helix_tube(
        wheel_center - Vec3::new(0.0, 0.0, 0.0),
        9.0,
        0.3,
        1.0,
        0.01,
        res(200, d, 16),
        res(8, d, 4),
    )?);
    for k in 0..count(24, d, 4) {
        let a = 2.0 * std::f32::consts::PI * k as f32 / count(24, d, 4) as f32;
        let c = wheel_center + Vec3::new(9.0 * a.cos(), 9.0 * a.sin(), 0.0);
        m.append(&cuboid(c - Vec3::splat(0.7), c + Vec3::splat(0.7)));
    }
    // Carousel.
    m.append(&cylinder(
        Vec3::new(15.0, 0.0, 5.0),
        5.0,
        0.5,
        res(32, d, 8),
    )?);
    m.append(&cone(Vec3::new(15.0, 4.0, 5.0), 5.5, 2.5, res(32, d, 8))?);
    for k in 0..count(16, d, 3) {
        let a = 2.0 * std::f32::consts::PI * k as f32 / count(16, d, 3) as f32;
        let c = Vec3::new(15.0 + 4.0 * a.cos(), 1.8, 5.0 + 4.0 * a.sin());
        m.append(&uv_sphere(c, 0.6, res(16, d, 5), res(24, d, 6))?);
    }
    // Tents.
    for _ in 0..count(20, d, 3) {
        let x = rng.gen_range(-35.0..35.0);
        let z = rng.gen_range(-35.0..35.0);
        let r: f32 = rng.gen_range(1.5..3.5);
        m.append(&cone(Vec3::new(x, 0.0, z), r, r * 1.4, res(24, d, 6))?);
    }
    Ok(m)
}

/// Ship: a small hull with masts and deck structures — like WKND, a small
/// BVH, but deeper.
fn ship(d: f32) -> Result<Mesh, SceneError> {
    let hull = displaced_sphere(Vec3::ZERO, 1.0, res(24, d, 8), res(36, d, 10), |t, p| {
        0.05 * ripple(t, p, 2, 1.0)
    })?
    .scaled(Vec3::new(4.0, 1.2, 1.4))
    .translated(Vec3::new(0.0, 1.0, 0.0));
    let mut m = hull;
    for x in [-1.5f32, 1.5] {
        m.append(&cylinder(Vec3::new(x, 2.0, 0.0), 0.12, 5.0, res(8, d, 4))?);
        m.append(&cuboid(
            Vec3::new(x - 1.2, 4.0, -0.05),
            Vec3::new(x + 1.2, 6.0, 0.05),
        ));
    }
    m.append(&cuboid(
        Vec3::new(-1.0, 2.0, -0.9),
        Vec3::new(1.0, 2.8, 0.9),
    ));
    Ok(m)
}

/// Sponza-like atrium: floor, walls, and a colonnade.
fn spnza(d: f32) -> Result<Mesh, SceneError> {
    let mut m = ground_plane(30.0, 0.0, res(28, d, 4))?;
    // Four walls (vertical planes via mapping from a ground plane).
    let wall = ground_plane(30.0, 0.0, res(28, d, 4))?;
    m.append(
        &wall
            .mapped(|v| Vec3::new(v.x, v.z + 30.0, -30.0))
            .scaled(Vec3::new(1.0, 0.35, 1.0)),
    );
    m.append(
        &wall
            .mapped(|v| Vec3::new(v.x, v.z + 30.0, 30.0))
            .scaled(Vec3::new(1.0, 0.35, 1.0)),
    );
    m.append(
        &wall
            .mapped(|v| Vec3::new(-30.0, v.z + 30.0, v.x))
            .scaled(Vec3::new(1.0, 0.35, 1.0)),
    );
    m.append(
        &wall
            .mapped(|v| Vec3::new(30.0, v.z + 30.0, v.x))
            .scaled(Vec3::new(1.0, 0.35, 1.0)),
    );
    // Two rows of columns with capitals.
    for row in [-12.0f32, 12.0] {
        for k in 0..14 {
            let x = -26.0 + 4.0 * k as f32;
            let base = Vec3::new(x, 0.0, row);
            m.append(&cylinder(base, 0.8, 8.0, res(16, d, 6))?);
            m.append(&cuboid(
                base + Vec3::new(-1.1, 8.0, -1.1),
                base + Vec3::new(1.1, 9.0, 1.1),
            ));
            m.append(&uv_sphere(
                base + Vec3::new(0.0, 7.6, 0.0),
                1.0,
                res(10, d, 4),
                res(14, d, 5),
            )?);
        }
    }
    Ok(m)
}

/// Bathroom: a tiled room with a tub, sink, and plumbing.
fn bath(d: f32) -> Result<Mesh, SceneError> {
    let mut m = ground_plane(12.0, 0.0, res(50, d, 6))?;
    let wall = ground_plane(12.0, 0.0, res(40, d, 5))?;
    m.append(&wall.mapped(|v| Vec3::new(v.x, v.z + 12.0, -12.0)));
    m.append(&wall.mapped(|v| Vec3::new(-12.0, v.z + 12.0, v.x)));
    // Tub: a squashed open blob.
    m.append(
        &displaced_sphere(Vec3::ZERO, 1.0, res(80, d, 10), res(120, d, 12), |t, p| {
            0.03 * ripple(t, p, 2, 1.0)
        })?
        .scaled(Vec3::new(3.2, 1.1, 1.8))
        .translated(Vec3::new(-6.0, 1.0, -8.0)),
    );
    // Sink.
    m.append(&uv_sphere(
        Vec3::new(6.0, 2.6, -10.0),
        1.0,
        res(40, d, 8),
        res(60, d, 10),
    )?);
    m.append(&cuboid(
        Vec3::new(5.0, 0.0, -11.0),
        Vec3::new(7.0, 2.2, -9.0),
    ));
    // Plumbing: helical pipe runs.
    m.append(&helix_tube(
        Vec3::new(10.0, 0.5, -11.5),
        0.6,
        0.12,
        6.0,
        8.0,
        res(240, d, 12),
        res(8, d, 4),
    )?);
    Ok(m)
}

/// Reflection test room: mirror spheres and boxes in an enclosure.
fn rf(d: f32) -> Result<Mesh, SceneError> {
    let mut m = ground_plane(16.0, 0.0, res(20, d, 4))?;
    let wall = ground_plane(16.0, 0.0, res(16, d, 3))?;
    m.append(&wall.mapped(|v| Vec3::new(v.x, v.z + 16.0, -16.0)));
    m.append(&wall.mapped(|v| Vec3::new(-16.0, v.z + 16.0, v.x)));
    let mut rng = SmallRng::seed_from_u64(0x5245_465f);
    use rt_rng::Rng;
    for _ in 0..count(6, d, 2) {
        let p = Vec3::new(
            rng.gen_range(-10.0..10.0),
            rng.gen_range(1.5..4.0),
            rng.gen_range(-10.0..10.0),
        );
        m.append(&uv_sphere(p, 1.5, res(24, d, 6), res(36, d, 8))?);
    }
    for _ in 0..count(8, d, 2) {
        let p = Vec3::new(rng.gen_range(-12.0..12.0), 0.0, rng.gen_range(-12.0..12.0));
        let s: f32 = rng.gen_range(0.8..2.0);
        m.append(&cuboid(p, p + Vec3::new(s, s * 1.5, s)));
    }
    Ok(m)
}

/// Chestnut tree: trunk, branches, a dense canopy, and fallen nuts.
fn chsnt(d: f32) -> Result<Mesh, SceneError> {
    let mut m = ground_plane(20.0, 0.0, res(16, d, 3))?;
    m.append(&cylinder(Vec3::ZERO, 0.9, 6.0, res(24, d, 6))?);
    let mut rng = SmallRng::seed_from_u64(0x4348_534e);
    use rt_rng::Rng;
    for k in 0..5 {
        let a = 2.0 * std::f32::consts::PI * k as f32 / 5.0;
        m.append(
            &cylinder(Vec3::ZERO, 0.3, 3.5, res(10, d, 4))?
                .rotated_y(a)
                .mapped(|v| {
                    Vec3::new(
                        v.x + v.y * 0.5 * a.cos(),
                        v.y + 5.0,
                        v.z + v.y * 0.5 * a.sin(),
                    )
                }),
        );
    }
    m.append(&displaced_sphere(
        Vec3::new(0.0, 9.5, 0.0),
        4.0,
        res(70, d, 10),
        res(105, d, 12),
        |t, p| 0.15 * ripple(t, p, 4, 1.0),
    )?);
    for _ in 0..count(30, d, 3) {
        let p = Vec3::new(rng.gen_range(-6.0..6.0), 0.15, rng.gen_range(-6.0..6.0));
        m.append(&uv_sphere(p, 0.15, res(6, d, 3), res(8, d, 4))?);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_round_trip_through_names() {
        for id in SceneId::ALL {
            assert_eq!(SceneId::from_name(id.name()), Some(id));
            assert_eq!(SceneId::from_name(&id.name().to_lowercase()), Some(id));
        }
        assert_eq!(SceneId::from_name("NOPE"), None);
    }

    #[test]
    fn paper_stats_match_table_2_spot_checks() {
        assert_eq!(SceneId::Wknd.paper_stats().tree_depth, 7);
        assert_eq!(SceneId::Robot.paper_stats().total_treelets, 13_532_923);
        assert_eq!(SceneId::Ship.paper_stats().tree_size_mb, 0.5);
    }

    #[test]
    fn every_scene_builds_at_low_detail() {
        for id in SceneId::ALL {
            let s = Scene::build_with_detail(id, 0.15);
            assert!(!s.mesh.is_empty(), "{id} produced an empty mesh");
            assert!(!s.mesh.aabb().is_empty());
            assert!(
                s.mesh.triangles().iter().all(|t| t.aabb().min.is_finite()),
                "{id} produced non-finite triangles"
            );
        }
    }

    #[test]
    fn scenes_are_deterministic() {
        let a = Scene::build_with_detail(SceneId::Party, 0.2);
        let b = Scene::build_with_detail(SceneId::Party, 0.2);
        assert_eq!(a.mesh.len(), b.mesh.len());
        assert_eq!(a.mesh.triangles()[7], b.mesh.triangles()[7]);
    }

    #[test]
    fn detail_scales_triangle_count() {
        let small = Scene::build_with_detail(SceneId::Lands, 0.1);
        let large = Scene::build_with_detail(SceneId::Lands, 0.3);
        assert!(large.mesh.len() > 3 * small.mesh.len());
    }

    #[test]
    fn size_ordering_matches_paper_extremes() {
        // At equal detail, the stand-ins preserve the paper's extremes:
        // WKND/SHIP smallest, CAR/ROBOT largest.
        let d = 0.25;
        let wknd = Scene::build_with_detail(SceneId::Wknd, d).triangle_count();
        let ship = Scene::build_with_detail(SceneId::Ship, d).triangle_count();
        let car = Scene::build_with_detail(SceneId::Car, d).triangle_count();
        let robot = Scene::build_with_detail(SceneId::Robot, d).triangle_count();
        assert!(wknd < car && wknd < robot);
        assert!(ship < car && ship < robot);
        assert!(car.max(robot) > 8 * wknd);
    }

    #[test]
    fn camera_frames_scene() {
        let s = Scene::build_with_detail(SceneId::Wknd, 0.3);
        let aabb = s.mesh.aabb();
        // Camera is outside the bounding box looking at the contents.
        assert!(!aabb.contains_point(s.camera.origin()));
    }

    #[test]
    #[should_panic(expected = "detail must be positive")]
    fn zero_detail_panics() {
        let _ = Scene::build_with_detail(SceneId::Wknd, 0.0);
    }

    #[test]
    fn non_finite_detail_is_a_typed_error() {
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -1.0] {
            match Scene::try_build_with_detail(SceneId::Wknd, bad) {
                Err(SceneError::InvalidDetail { detail }) => {
                    assert!(detail.is_nan() == bad.is_nan() || detail == bad);
                }
                other => panic!("detail {bad} produced {other:?}"),
            }
        }
    }

    #[test]
    fn huge_detail_fails_fast_with_typed_error() {
        // Every builder's first generator call is detail-scaled, so a
        // runaway detail factor must fail at the budget check instead of
        // allocating until OOM (this used to hang).
        for id in SceneId::ALL {
            match Scene::try_build_with_detail(id, 1e30) {
                Err(SceneError::TooManyTriangles { requested, limit }) => {
                    assert!(requested > limit, "{id}: {requested} <= {limit}");
                }
                other => panic!("{id} at detail 1e30 produced {other:?}"),
            }
        }
    }
}
