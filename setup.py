from setuptools import find_packages, setup

setup(
    name="repro-maybms",
    version="0.5.0",
    description=(
        "A pure-Python reproduction of MayBMS: U-relational probabilistic "
        "databases with confidence computation, durable storage, and a "
        "multi-session server."
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "maybms-server=repro.server.__main__:main",
        ]
    },
)
