"""The 57 benchmark modules print and generate code as they did.

``bench_digests.py`` rebuilds them; a change to what ``opt`` prints or
what code generation writes for any of them moves one of these digests,
and must re-take it on purpose.
"""
import bench_digests

# modules, opt digest, generated-source digest, as taken when the helper
# was checked in (the same at its parent); the source digest was retaken
# (4ae0580424a7fa50 before) when a kernel's parameters were taken to be
# defined outside its thread loops, again (500ff366ae3b3da9 before) when
# conv2d's filter nest jammed into the slice statement of its output loop,
# and again (5ef8fab6bba0a372 before) when a parameter read more often than
# it has elements was read from a list
PINNED = (57, "2e6bbc62d128f278", "24a3e0b0689888fe")


def test_bench_modules_print_and_generate_as_pinned():
    assert bench_digests.digests() == PINNED
