"""Geodesic math tests, including hypothesis invariants."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    KM_PER_MILE,
    LatLon,
    geodesic_km,
)

latitudes = st.floats(min_value=-90.0, max_value=90.0,
                      allow_nan=False, allow_infinity=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0,
                       allow_nan=False, allow_infinity=False)
points = st.builds(LatLon, latitudes, longitudes)


class TestLatLon:
    def test_rejects_out_of_range_latitude(self):
        with pytest.raises(ValueError):
            LatLon(91.0, 0.0)
        with pytest.raises(ValueError):
            LatLon(-90.5, 0.0)

    def test_rejects_out_of_range_longitude(self):
        with pytest.raises(ValueError):
            LatLon(0.0, 181.0)

    def test_frozen(self):
        point = LatLon(1.0, 2.0)
        with pytest.raises(AttributeError):
            point.lat = 3.0  # type: ignore[misc]


class TestKnownDistances:
    def test_new_york_to_london(self):
        ny = LatLon(40.7128, -74.0060)
        london = LatLon(51.5074, -0.1278)
        assert geodesic_km(ny, london) == pytest.approx(5570.0, rel=0.01)

    def test_equator_quarter_circumference(self):
        a = LatLon(0.0, 0.0)
        b = LatLon(0.0, 90.0)
        assert geodesic_km(a, b) == pytest.approx(
            math.pi * EARTH_RADIUS_KM / 2.0, rel=1e-6
        )

    def test_pole_to_pole(self):
        north = LatLon(90.0, 0.0)
        south = LatLon(-90.0, 0.0)
        assert geodesic_km(north, south) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, rel=1e-6
        )

    def test_miles_conversion(self):
        # Figures 6 and 9 report statute miles: ten degrees of the
        # equator is 691 of them.
        a = LatLon(0.0, 0.0)
        b = LatLon(0.0, 10.0)
        assert geodesic_km(a, b) / KM_PER_MILE == pytest.approx(
            690.9, abs=0.5
        )


class TestProperties:
    @given(points)
    def test_self_distance_zero(self, p):
        assert geodesic_km(p, p) == pytest.approx(0.0, abs=1e-6)

    @given(points, points)
    def test_symmetry(self, a, b):
        assert geodesic_km(a, b) == pytest.approx(geodesic_km(b, a),
                                                  rel=1e-9, abs=1e-9)

    @given(points, points)
    def test_bounded_by_half_circumference(self, a, b):
        assert 0.0 <= geodesic_km(a, b) <= math.pi * EARTH_RADIUS_KM + 1.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        direct = geodesic_km(a, c)
        detour = geodesic_km(a, b) + geodesic_km(b, c)
        assert direct <= detour + 1e-6

    @given(points)
    def test_antimeridian_wrap(self, p):
        east = LatLon(p.lat, 179.9)
        west = LatLon(p.lat, -179.9)
        # Crossing the antimeridian is short, not nearly a full circle.
        assert geodesic_km(east, west) < 100.0 * math.cos(
            math.radians(p.lat)
        ) + 1.0
